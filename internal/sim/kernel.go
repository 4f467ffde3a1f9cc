// Package sim implements a deterministic discrete-event simulation kernel.
//
// Each simulated process (Spawn) runs arbitrary blocking Go code as a
// coroutine (iter.Pull) of Run's goroutine. The kernel enforces strictly
// sequential execution: at any instant exactly one body runs, and
// control moves by coroutine switches, never through the Go scheduler.
// Run's goroutine is a trampoline: it resumes whichever process the
// dispatch loop picked. A process that parks runs the dispatch loop
// itself, returns in place when the next runnable process is itself,
// and otherwise yields the picked process back to the trampoline. A body
// that returns hands its coroutine to the kernel's idle list for the
// next process to start on; Run stops the idle coroutines before it
// returns, so no goroutine outlives Run. Virtual time is an int64 tick
// counter; events are dispatched in (time, sequence) order, so every run
// of the same program is bit-for-bit reproducible regardless of host
// scheduling.
//
// A body that panics ends the run with a *ProcPanic. A runtime.Goexit
// in a body (t.FailNow in a test, say) is not a return: Run first
// unwinds every other parked process, as after any error, and then the
// Goexit ends Run's goroutine too, so Run never returns. A panicking
// Schedule callback likewise unwinds the parked processes and then
// propagates out of Run.
//
// The kernel knows nothing about machines, energy or the STAMP model; it
// provides only time, processes, wait queues and timer callbacks. Higher
// layers (internal/machine, internal/core, ...) charge model costs by
// calling Proc.Hold and by keeping their own counters.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Time is virtual simulation time in ticks. One tick is one "local
// operation" in the STAMP model's terms.
type Time int64

// Infinity is a time larger than any schedulable event time.
const Infinity Time = 1<<62 - 1

// eventKind discriminates the queue entries the kernel dispatches.
type eventKind uint8

const (
	evWake  eventKind = iota // resume a parked or held process
	evCall                   // run a kernel-context callback
	evStart                  // first activation of a spawned process
)

type event struct {
	at   Time
	seq  int64 // tie-break: FIFO among same-time events
	kind eventKind
	proc *Proc  // evWake, evStart
	fn   func() // evCall
}

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now    Time
	seq    int64
	events eventHeap

	// Live processes form an intrusive doubly-linked list in spawn
	// order (Proc.prevLive/nextLive). Finished procs leave the list, so
	// kernel memory is O(live procs), not O(procs ever spawned).
	liveHead *Proc
	liveTail *Proc

	live    int // spawned and not yet finished
	err     error
	inCall  bool // a kernel-context callback is on the stack
	nextID  int
	running bool

	// cur is the process whose body is running, or nil in kernel
	// context (Run's own dispatch, evCall callbacks, teardown). It
	// exists so probe hooks can attribute wait-queue signals and spawns
	// to the process that issued them.
	cur *Proc

	// idle holds the coroutines of returned bodies, waiting for the
	// next first activation (see Kernel.coroFor). Run stops them
	// before it returns.
	idle []*coro

	// probe, when non-nil, observes synchronization structure (see
	// Probe). Every hook site is gated on a nil check so the disabled
	// case costs nothing.
	probe Probe

	// Error-path teardown state (see teardown). stopped marks the
	// kernel permanently dead after an error-terminated Run; poisoned
	// is set while (and after) parked processes are being unwound.
	stopped  bool
	poisoned bool

	// MaxEvents bounds the number of dispatched events; 0 means no
	// bound. Exceeding it makes Run return ErrEventLimit.
	MaxEvents  int64
	dispatched int64

	// interrupt, when set, asks dispatch to end the run at the next
	// event boundary (see Interrupt). It is the kernel's only state a
	// goroutine outside the run may touch, hence the atomic.
	interrupt atomic.Pointer[ErrInterrupted]
}

// NewKernel returns an empty simulator positioned at time 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Procs returns the live (spawned and not yet finished) processes, in
// spawn order. Finished processes are not retained by the kernel.
func (k *Kernel) Procs() []*Proc {
	var ps []*Proc
	for p := k.liveHead; p != nil; p = p.nextLive {
		ps = append(ps, p)
	}
	return ps
}

// alive appends p to the live list; spawn order is preserved so
// teardown and deadlock reports visit processes in the same order the
// retained-slice kernel did.
func (k *Kernel) alive(p *Proc) {
	p.prevLive = k.liveTail
	p.nextLive = nil
	if k.liveTail != nil {
		k.liveTail.nextLive = p
	} else {
		k.liveHead = p
	}
	k.liveTail = p
}

// unlive removes p from the live list at retirement.
func (k *Kernel) unlive(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		k.liveHead = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	} else {
		k.liveTail = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// push schedules an event; at must be >= k.now.
func (k *Kernel) push(at Time, kind eventKind, p *Proc, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, k.now))
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, kind: kind, proc: p, fn: fn})
}

// Spawn creates a new process named name running fn and schedules its
// first activation at the current time. It may be called before Run or
// from inside a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:     k,
		id:    k.nextID,
		name:  name,
		state: stateNew,
		fn:    fn,
	}
	k.nextID++
	k.alive(p)
	k.live++
	if k.probe != nil {
		k.probe.ProcStart(k.cur, p)
	}
	k.push(k.now, evStart, p, nil)
	return p
}

// Schedule runs fn in kernel context after delay d. fn must not block;
// it may spawn processes, signal wait queues and schedule further
// callbacks.
func (k *Kernel) Schedule(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.push(k.now+d, evCall, nil, fn)
}

// ErrDeadlock is returned by Run when live processes remain but no event
// can ever wake them.
type ErrDeadlock struct {
	At      Time
	Blocked []string // names of blocked processes
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d; blocked: %s", e.At, strings.Join(e.Blocked, ", "))
}

// ErrEventLimit is returned by Run when MaxEvents is exceeded.
type ErrEventLimit struct{ Limit int64 }

func (e *ErrEventLimit) Error() string {
	return fmt.Sprintf("sim: event limit %d exceeded", e.Limit)
}

// ErrInterrupted is returned by Run after an Interrupt took effect.
// At is the virtual time the run was cut off at.
type ErrInterrupted struct {
	Reason string
	At     Time
}

func (e *ErrInterrupted) Error() string {
	return fmt.Sprintf("sim: interrupted at t=%d: %s", e.At, e.Reason)
}

// Interrupt asks a running kernel to stop, from any goroutine — the
// one operation on a Kernel that is safe to call concurrently with
// dispatch. The run ends at the next event boundary with the same full
// teardown as any error (every parked process unwinds, no coroutine
// outlives the run) and Run returns an *ErrInterrupted carrying reason.
// The cut-off point depends on when the call lands relative to the
// dispatch loop, so interrupted runs are not deterministic: callers
// must treat the partial state as unusable. Interrupting a kernel that
// is already finished, stopped or never started is a no-op.
func (k *Kernel) Interrupt(reason string) {
	k.interrupt.Store(&ErrInterrupted{Reason: reason})
}

// ErrStopped is returned by Run when the kernel has already terminated
// with an error. An error-terminated Run tears the simulation down —
// every parked process is unwound and retired — so there is no
// coherent state to resume from; the kernel is permanently dead and a
// new one must be built. (Re-Run after a nil-error Run remains valid:
// spawn more processes and call Run again.)
var ErrStopped = errors.New("sim: kernel stopped after error; create a new Kernel")

// ProcPanic wraps a panic raised inside a process body.
type ProcPanic struct {
	Proc  string
	Value any
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// Run dispatches events until no process remains live and the event
// queue is empty, and returns nil; or returns the first error:
// a process panic, a deadlock, the event limit, an interrupt, or
// ErrStopped if a previous Run already failed.
//
// Run's goroutine is a trampoline. It runs the dispatch loop to find
// the first runnable process, then resumes the coroutine of whichever
// process dispatch picked; that body runs until it parks or returns
// and yields the next process to resume, or nil once the run has
// ended. Every coroutine is created and resumed here, on Run's
// goroutine, so each is switched under the thread-lock state it was
// created with.
//
// An error return is a full teardown (see teardown): before Run
// returns, every parked process is poison-resumed, unwound through its
// deferred functions, and retired. The kernel is then permanently
// stopped (see ErrStopped). A runtime.Goexit or a panic that crosses
// Run — a body's Goexit, a Schedule callback's panic — gets the same
// teardown from Run's deferred cleanup before it propagates. Either
// way Run stops the idle coroutines last, so no goroutine outlives it.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Kernel.Run is not reentrant")
	}
	if k.stopped {
		return ErrStopped
	}
	k.running = true
	k.err = nil
	k.cur = nil
	ended := false
	defer func() {
		if !ended {
			k.inCall = false
			k.stopped = true
			k.teardown(nil)
		}
		k.stopIdle()
		k.running = false
	}()

	var last *Proc
	for p := k.dispatch(); p != nil; {
		last = p
		c := p.co
		if c == nil {
			c = k.coroFor(p)
		}
		p, _ = c.resume()
	}
	if k.err != nil {
		k.teardown(last)
	}
	ended = true
	return k.err
}

// dispatch runs the event loop until a process becomes runnable and
// returns it, marked running and recorded as cur; or returns nil once
// the run has ended, with the outcome in k.err (see finish). Run calls
// it for the first process, a parking process for the next one (see
// Proc.park) and a returning body for its successor (see Proc.run).
//
// The pop sequence and event handling do not depend on who calls it,
// so dispatch order — and therefore every virtual-time result — is
// the same whichever body runs the loop.
func (k *Kernel) dispatch() *Proc {
	for {
		if e := k.interrupt.Load(); e != nil {
			e.At = k.now
			k.finish(e)
			return nil
		}
		if k.events.Len() == 0 {
			if k.live == 0 {
				k.finish(nil)
			} else {
				k.finish(&ErrDeadlock{At: k.now, Blocked: k.blockedNames()})
			}
			return nil
		}
		ev := k.events.pop()
		k.dispatched++
		if k.MaxEvents > 0 && k.dispatched > k.MaxEvents {
			k.finish(&ErrEventLimit{Limit: k.MaxEvents})
			return nil
		}
		k.now = ev.at

		switch ev.kind {
		case evCall:
			// inCall distinguishes a callback panic (a kernel-context
			// bug that propagates out of Run) from a process-body panic
			// (reported as ProcPanic); see Proc.run.
			k.cur = nil
			k.inCall = true
			ev.fn()
			k.inCall = false
		case evStart:
			p := ev.proc
			if p.killed {
				// Killed before first activation: retire without ever
				// binding a coroutine. The joiner wakes carry no
				// process edge (kernel context), so clear cur.
				k.cur = nil
				p.state = stateDone
				k.live--
				k.unlive(p)
				p.joiners.broadcastLocked(k)
				continue
			}
			p.state = stateRunning
			k.cur = p
			return p
		case evWake:
			p := ev.proc
			if p.state == stateDone {
				continue // stale wake after completion: ignore
			}
			if p.state != stateWaiting {
				panic(fmt.Sprintf("sim: wake of process %q in state %v", p.name, p.state))
			}
			p.state = stateRunning
			k.cur = p
			return p
		}
	}
}

// finish records the outcome of the run; dispatch returns nil right
// after, so it runs at most once per Run. An error stops the kernel for
// good; Run tears it down once control is back on its goroutine.
func (k *Kernel) finish(err error) {
	k.err = err
	if err != nil {
		k.stopped = true
	}
}

// teardown poison-unwinds every parked process, on Run's goroutine. It
// resumes them one at a time in spawn order; each observes the poison
// in park, unwinds through its deferred functions and retires before
// its coroutine yields back, so one body runs at a time even mid-
// teardown and unwinding defers may touch kernel state. last, the
// process that detected the error from inside its own park, unwinds
// after all the others. Retirement edits the live list, so the parked
// set is snapshotted first.
func (k *Kernel) teardown(last *Proc) {
	k.poisoned = true
	var parked []*Proc
	for p := k.liveHead; p != nil; p = p.nextLive {
		if p != last && p.state == stateWaiting {
			parked = append(parked, p)
		}
	}
	if last != nil && last.state == stateWaiting {
		parked = append(parked, last)
	}
	for _, p := range parked {
		p.co.resume()
	}
}

// blockedNames lists live processes for deadlock reports,
// alphabetically for stable output.
func (k *Kernel) blockedNames() []string {
	var names []string
	for p := k.liveHead; p != nil; p = p.nextLive {
		if p.state == stateWaiting {
			names = append(names, fmt.Sprintf("%s(id=%d)", p.name, p.id))
		}
	}
	sort.Strings(names)
	return names
}

// Dispatched returns the number of events dispatched so far; every
// Hold is one.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// Seq returns the event sequence counter — the total number of events
// ever pushed. Checkpoints record it alongside the clock so a restored
// kernel's FIFO tie-breaking resumes from the same position.
func (k *Kernel) Seq() int64 { return k.seq }

// Restore positions a fresh kernel at a checkpointed instant: virtual
// time now, sequence counter seq and dispatch count dispatched. Only a
// pristine kernel may be restored — never run, nothing spawned,
// nothing scheduled — because restore substitutes recorded history for
// live state rather than merging with it. Events and processes added
// after Restore behave as if the kernel had genuinely reached now.
func (k *Kernel) Restore(now Time, seq, dispatched int64) {
	if k.running || k.stopped || k.liveHead != nil || k.nextID > 0 || k.events.Len() > 0 || k.now != 0 {
		panic("sim: Restore needs a pristine kernel (never run, no procs, no events)")
	}
	if now < 0 || seq < 0 || dispatched < 0 {
		panic("sim: Restore with negative state")
	}
	k.now, k.seq, k.dispatched = now, seq, dispatched
}
