// Package sim implements a deterministic discrete-event simulation kernel.
//
// Each simulated process (Spawn) runs arbitrary blocking Go code on a
// goroutine of its own. The kernel enforces strictly sequential
// execution: at any instant exactly one goroutine runs, with control
// transferred by direct channel handoff. The dispatch loop is not
// pinned to a kernel goroutine — it is a baton: the goroutine that
// parks runs the loop itself and resumes the next runnable process
// directly, so a park costs one goroutine switch, not two, and costs
// none at all when the next runnable process is the parker itself.
// Virtual time is an int64 tick counter; events are dispatched in
// (time, sequence) order, so every run of the same program is
// bit-for-bit reproducible regardless of host scheduling.
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
	done    chan struct{}
	err     error
	inCall  bool // a kernel-context callback is on the stack
	nextID  int
	running bool

	// cur is the process whose goroutine currently holds the baton, or
	// nil in kernel context (Run's seed dispatch, evCall callbacks,
	// teardown). It exists so probe hooks can attribute wait-queue
	// signals and spawns to the process that issued them.
	cur *Proc

	// probe, when non-nil, observes synchronization structure (see
	// Probe). Every hook site is gated on a nil check so the disabled
	// case costs nothing.
	probe Probe

	// Error-path teardown state (see finish). stopped marks the kernel
	// permanently dead after an error-terminated Run; poisoned is set
	// while (and after) parked processes are being unwound; unwound is
	// the rendezvous each unwinding goroutine signals on; doneSender,
	// when non-nil, is the process whose own unwind must deliver the
	// done signal (the process that detected the error from inside its
	// park and still has its own stack to unwind).
	stopped    bool
	poisoned   bool
	unwound    chan struct{}
	doneSender *Proc

	// MaxEvents bounds the number of dispatched events; 0 means no
	// bound. Exceeding it makes Run return ErrEventLimit. Coalesced
	// holds (see Proc.Hold) count as dispatches, so the bound is
	// independent of whether the fast path fires.
	MaxEvents  int64
	dispatched int64

	// interrupt, when set, asks dispatch to end the run at the next
	// event boundary (see Interrupt). It is the kernel's only state a
	// goroutine outside the baton may touch, hence the atomic.
	interrupt atomic.Pointer[ErrInterrupted]

	// DisableFastPath turns off the hold-coalescing fast path so every
	// Hold takes the park → heap → channel slow path. The two modes are
	// observationally equivalent; the flag exists so tests can assert
	// exactly that (see fuzz_test.go).
	DisableFastPath bool
}

// NewKernel returns an empty simulator positioned at time 0.
func NewKernel() *Kernel {
	return &Kernel{
		// Buffered so the goroutine that ends the simulation can signal
		// Run and exit without a rendezvous.
		done: make(chan struct{}, 1),
		// Unbuffered on purpose: teardown unwinds parked goroutines one
		// at a time, and the rendezvous is the sequencing.
		unwound: make(chan struct{}),
	}
}

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

// canCoalesce reports whether the running process may advance the clock
// by d ticks without parking: nothing else is scheduled at or before
// now+d (so no other event could dispatch first, and a same-time tie —
// which FIFO order says the freshly pushed wake would lose — cannot
// exist), and the dispatch budget has headroom to count the skipped
// event. This is also exported through Proc.CanCoalesce so higher layers
// can batch cost charging only when it is provably order-preserving.
func (k *Kernel) canCoalesce(d Time) bool {
	return k.running &&
		!k.DisableFastPath &&
		(k.events.Len() == 0 || k.events.min().at > k.now+d) &&
		(k.MaxEvents <= 0 || k.dispatched < k.MaxEvents) &&
		// A pending interrupt must force the slow path: a compute-bound
		// proc coalescing holds never re-enters dispatch, and dispatch
		// is where the interrupt is honoured.
		k.interrupt.Load() == nil
}

// Spawn creates a new process named name running fn and schedules its
// first activation at the current time. It may be called before Run or
// from inside a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   name,
		resume: make(chan struct{}),
		state:  stateNew,
		fn:     fn,
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
// teardown as any error (every parked process unwinds, no goroutine
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
// a process panic, a deadlock, the event limit, or ErrStopped if a
// previous Run already failed.
//
// An error return is a full teardown: before Run returns, every parked
// process goroutine is poison-resumed, unwound through its deferred
// functions, and retired, so no goroutine outlives an error-terminated
// Run. The kernel is then permanently stopped (see ErrStopped).
//
// Run's goroutine is not the dispatcher. It seeds the baton — the right
// to run the dispatch loop — and then waits for whichever goroutine
// ends the simulation to signal completion. The baton passes directly
// from the goroutine that parks to the goroutine it wakes.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Kernel.Run is not reentrant")
	}
	if k.stopped {
		return ErrStopped
	}
	k.running = true
	defer func() { k.running = false }()

	k.err = nil
	k.doneSender = nil
	k.cur = nil
	k.dispatch(nil)
	<-k.done
	return k.err
}

// batonState is dispatch's verdict on where the baton went.
type batonState uint8

const (
	// batonPassed: the baton went to another goroutine (or the
	// simulation finished with the caller not parked); the caller must
	// block on its resume channel or return.
	batonPassed batonState = iota
	// batonSelf: the next runnable process is the caller; it resumes in
	// place with no channel handoff.
	batonSelf
	// batonDead: the simulation terminated with an error while the
	// caller was parked; the caller must unwind instead of resuming.
	batonDead
)

// dispatch runs the event loop while the calling goroutine holds the
// scheduler baton. self is the process whose goroutine is calling (nil
// from Run or from a finished process). It returns batonSelf when the
// next runnable process is self — the caller resumes in place with no
// channel handoff at all — batonDead when the simulation ended in an
// error while self was parked (the caller must unwind), and
// batonPassed after handing the baton to another goroutine or ending
// the simulation normally.
//
// The pop sequence and event handling are identical to a centralized
// loop; only the goroutine executing them differs, so dispatch order —
// and therefore every virtual-time result — is unchanged.
func (k *Kernel) dispatch(self *Proc) batonState {
	for {
		if e := k.interrupt.Load(); e != nil {
			e.At = k.now
			k.finish(e, self)
			return k.batonAfterFinish(self)
		}
		if k.events.Len() == 0 {
			if k.live == 0 {
				k.finish(nil, self)
			} else {
				k.finish(&ErrDeadlock{At: k.now, Blocked: k.blockedNames()}, self)
			}
			return k.batonAfterFinish(self)
		}
		ev := k.events.pop()
		k.dispatched++
		if k.MaxEvents > 0 && k.dispatched > k.MaxEvents {
			k.finish(&ErrEventLimit{Limit: k.MaxEvents}, self)
			return k.batonAfterFinish(self)
		}
		k.now = ev.at

		switch ev.kind {
		case evCall:
			// inCall distinguishes a callback panic (a kernel-context
			// bug that must crash, as an unrecovered panic did under
			// the centralized loop) from a process-body panic (reported
			// as ProcPanic); see Proc.run.
			k.cur = nil
			k.inCall = true
			ev.fn()
			k.inCall = false
		case evStart:
			p := ev.proc
			if p.killed {
				// Killed before first activation: retire without ever
				// creating a goroutine. The joiner wakes carry no
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
			go p.run()
			return batonPassed
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
			if p == self {
				return batonSelf
			}
			p.resume <- struct{}{}
			return batonPassed
		}
	}
}

// batonAfterFinish classifies the dispatch return after finish: a
// caller that was parked when the error hit must unwind its own stack
// (batonDead); otherwise — Run's seed dispatch, a finished process's
// trailing dispatch, or a normal end — the baton simply stops.
func (k *Kernel) batonAfterFinish(self *Proc) batonState {
	if self != nil && k.poisoned {
		return batonDead
	}
	return batonPassed
}

// finish records the simulation outcome and releases Run. Exactly one
// goroutine holds the baton at any instant, and dispatch stops looping
// after calling finish, so it runs at most once per Run.
//
// On an error outcome finish also tears the kernel down: every parked
// process goroutine is poison-resumed and fully unwound (running its
// deferred functions) before Run returns, so an error-terminated Run
// strands nothing. self is the process whose goroutine detected the
// error (nil when that was Run's seed dispatch or a finished process's
// trailing dispatch). self cannot unwind itself from here — that
// happens when its enclosing park observes batonDead — so when self is
// still parked, the done signal is deferred to self's own unwind
// (doneSender; see Proc.run).
func (k *Kernel) finish(err error, self *Proc) {
	k.err = err
	if err != nil {
		k.stopped = true
		k.teardown(self)
		if self != nil && self.state == stateWaiting {
			k.doneSender = self
			return
		}
	}
	k.done <- struct{}{}
}

// teardown poison-resumes every parked process except self, in spawn
// order, waiting for each goroutine to finish unwinding before
// resuming the next — the one-goroutine-at-a-time invariant holds even
// through error exits, so unwinding defers may safely touch kernel
// state. Retirement edits the live list, so the waiting set is
// snapshotted first.
func (k *Kernel) teardown(self *Proc) {
	k.poisoned = true
	var parked []*Proc
	for p := k.liveHead; p != nil; p = p.nextLive {
		if p != self && p.state == stateWaiting {
			parked = append(parked, p)
		}
	}
	for _, p := range parked {
		p.resume <- struct{}{}
		<-k.unwound
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

// Dispatched returns the number of events dispatched so far (coalesced
// holds included).
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
