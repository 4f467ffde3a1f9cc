package sim

import (
	"fmt"
	"iter"
)

// errUnwind is the sentinel panicked through a process body to unwind
// its stack when the process is killed or the kernel tears down
// after a fatal error. Deferred functions run as usual; the run wrapper
// recovers the sentinel and retires the process. Recover-all code in
// process bodies must re-panic values it does not recognize or it will
// swallow its own cancellation (the STM layer already follows this
// rule for its own control-flow panics).
var errUnwind = new(int)

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateWaiting
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateWaiting:
		return "waiting"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("procState(%d)", uint8(s))
}

// Proc is a simulated process. All its methods must be called only from
// the process body (the kernel guarantees only one body runs at a
// time), except ID, Name and Done which are safe anywhere the kernel is
// quiescent.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	co    *coro // the coroutine running the body; nil before and after
	state procState
	fn    func(p *Proc)

	joiners WaitQueue // processes blocked in Join on this one
	killed  bool      // Kill was called; unwind at the next chance

	// Live-list links (kernel retains only live procs; see Kernel.alive).
	prevLive *Proc
	nextLive *Proc

	// Ctx is an arbitrary per-process slot for higher layers (the
	// STAMP core attaches its accounting context here).
	Ctx any
}

// ID returns the process's kernel-assigned identifier (spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Unwinding reports whether the process must abandon execution: it was
// killed, or the kernel is tearing down after a fatal error. Cleanup
// code (deferred functions) uses this to skip work that would advance
// the clock or block.
func (p *Proc) Unwinding() bool { return p.killed || p.k.poisoned }

// Kill terminates the process without ending the simulation: its
// body unwinds (deferred functions run), processes joined on it
// are woken, and dispatch continues. Killing an already-done or
// already-killed process is a no-op. Kill must be called from
// simulation context — a process body or a kernel callback — and is
// itself instantaneous in virtual time.
//
// A process killed while parked is woken at the current time and
// unwinds instead of resuming; one killed before its first activation
// is retired without its body ever starting; a process may kill
// itself, which unwinds immediately (Kill does not return).
func (p *Proc) Kill() {
	if p.state == stateDone || p.killed {
		return
	}
	p.killed = true
	switch p.state {
	case stateNew:
		// Not yet activated: its pending evStart retires it.
	case stateWaiting:
		// Poison-wake: the pending park observes killed and unwinds.
		// Any wake already queued for p goes stale and is ignored.
		p.k.push(p.k.now, evWake, p, nil)
	case stateRunning:
		// Only the running process itself can observe this state (the
		// kernel is strictly sequential), so this is a self-kill.
		panic(errUnwind)
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// coro is a reusable process coroutine: an iter.Pull coroutine whose
// sequence runs one process body after another. Run's trampoline
// resumes it; the body yields back the next process to resume (nil
// once the run has ended) when it parks or returns. Between bodies it
// waits on the kernel's idle list.
type coro struct {
	resume func() (*Proc, bool)
	stop   func()
	yield  func(*Proc) bool
	p      *Proc // the process whose body runs next or is running
}

// loop is the coroutine's sequence: run the assigned body, retire the
// coroutine to the idle list, and yield the body's successor, until
// Run stops it.
func (c *coro) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		p := c.p
		next := p.run()
		p.co, c.p = nil, nil
		p.k.idle = append(p.k.idle, c)
		if !yield(next) {
			return
		}
	}
}

// coroFor binds a coroutine to p's first activation, reusing an idle
// one when there is one, so steady-state spawning creates no goroutine.
// Only Run's trampoline calls it.
func (k *Kernel) coroFor(p *Proc) *coro {
	var c *coro
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		c = new(coro)
		c.resume, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	p.co = c
	return c
}

// stopIdle ends every idle coroutine; their goroutines exit.
func (k *Kernel) stopIdle() {
	for _, c := range k.idle {
		c.stop()
	}
	k.idle = nil
}

// run executes the body and then retires the process, returning the
// next process to resume. It is also where every unwind converges: a
// kill or kernel teardown panics the errUnwind sentinel through the
// body (running its defers), and the recover here decides whether to
// keep dispatching (return or kill), retire quietly (teardown or
// runtime.Goexit), or report a user panic.
func (p *Proc) run() (next *Proc) {
	k := p.k
	returned := false
	defer func() {
		r := recover()
		p.state = stateDone
		k.live--
		k.unlive(p)
		switch {
		case r != nil && k.inCall:
			// The panic came from a kernel-context callback dispatched
			// inside p's park, not from p's body: it propagates out of
			// Run (see Kernel.Run).
			panic(r)
		case k.poisoned:
			// Kernel teardown: retire quietly; a user defer's panic
			// during the unwind is swallowed, as the run already
			// reports its error.
		case r == nil && !returned:
			// runtime.Goexit: it propagates out of Run, whose deferred
			// cleanup tears the kernel down.
		case r != nil && r != errUnwind:
			k.finish(&ProcPanic{Proc: p.name, Value: r})
		default:
			// Normal return, or a Kill unwind: wake joiners and
			// dispatch onward. The probe sees the exit before the
			// joiner wakes so that both the signal edges fired by the
			// broadcast (cur is still p here) and later already-done
			// Joins observe p's final position.
			if k.probe != nil {
				k.probe.ProcExit(p)
			}
			p.joiners.broadcastLocked(k)
			next = k.dispatch()
		}
	}()
	p.fn(p)
	returned = true
	return nil
}

// Hold advances the process's local time by d ticks: it schedules a wake
// at now+d and blocks until dispatched. Hold(0) yields to same-time
// events already queued. It is the one way a process advances the
// clock, and every Hold is exactly one dispatched event. When the wake
// is the next event, park returns in place without a coroutine switch.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		panic("sim: Hold with negative duration")
	}
	k := p.k
	if p.killed || k.poisoned {
		panic(errUnwind)
	}
	k.push(k.now+d, evWake, p, nil)
	p.park()
}

// park blocks p until its next wake is dispatched. It runs the
// dispatch loop itself: when the next runnable process is p (every
// intervening event was a timer callback), park returns in place with
// no coroutine switch; otherwise it yields the picked process — or nil
// when the run has ended — to Run's trampoline, and returns when the
// trampoline resumes p. A resume that comes because p was killed, or
// because the kernel is tearing down after an error, unwinds the body
// instead of returning.
func (p *Proc) park() {
	k := p.k
	if p.killed || k.poisoned {
		panic(errUnwind)
	}
	p.state = stateWaiting
	if next := k.dispatch(); next != p {
		p.co.yield(next)
	}
	if p.killed || k.poisoned {
		panic(errUnwind)
	}
}

// Join blocks until other's body has returned. Joining an already-done
// process returns immediately.
func (p *Proc) Join(other *Proc) {
	if other.k != p.k {
		panic(fmt.Sprintf("sim: %q joining %q across kernels; a process can only join one on its own kernel", p.name, other.name))
	}
	if other.state == stateDone {
		if k := p.k; k.probe != nil {
			k.probe.ProcJoin(p, other)
		}
		return
	}
	other.joiners.Wait(p)
}

// Yield gives other same-time events a chance to run before p continues.
func (p *Proc) Yield() { p.Hold(0) }
