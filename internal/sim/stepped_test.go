package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// The TestStep* cases pin the process contracts of the kernel, where
// every Hold parks and is stepped through the event heap — holds,
// joins, barrier release, defers, kills and teardown.

// TestStepHoldAndChain: a chain of holds — the first contested by a
// pending timer, the second uncontested — lands at the right times,
// and every Hold is exactly one dispatched event: the run dispatches
// the start, the timer and two wakes. MaxEvents, the checkpoint kill
// points and the benchmark's event counts rely on that.
func TestStepHoldAndChain(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, func() {}) // competitor inside the first hold
	var at []Time
	k.Spawn("s", func(p *Proc) {
		for _, d := range []Time{10, 7} {
			at = append(at, p.Now())
			p.Hold(d)
		}
		at = append(at, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(at), "[0 10 17]"; got != want {
		t.Fatalf("times = %s, want %s", got, want)
	}
	if got := k.Dispatched(); got != 4 {
		t.Fatalf("dispatched %d events, want 4 (start, timer, two wakes)", got)
	}
}

// TestStepJoin covers both join flavours: a live target parks the
// joiner until it retires, at the target's finish time; a done target
// returns at once, without advancing the clock or dispatching an event.
func TestStepJoin(t *testing.T) {
	k := NewKernel()
	var joinedLive, joinedDone Time = -1, -1
	extra := int64(-1)
	child := k.Spawn("child", func(p *Proc) { p.Hold(4) })
	k.Spawn("joiner", func(p *Proc) {
		p.Join(child)
		joinedLive = p.Now()
		before := k.Dispatched()
		p.Join(child)
		joinedDone = p.Now()
		extra = k.Dispatched() - before
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedLive != 4 || joinedDone != 4 || extra != 0 {
		t.Fatalf("joinedLive=%d joinedDone=%d extra dispatches=%d, want 4,4,0", joinedLive, joinedDone, extra)
	}
}

// TestStepMidActivationPark: a body may park on a semaphore part-way
// through and then hold. The waiter resumes at the release time, ahead
// of the releaser's next hold.
func TestStepMidActivationPark(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 0)
	var order []string
	k.Spawn("g", func(p *Proc) {
		p.Hold(3)
		order = append(order, fmt.Sprintf("g release at %d", p.Now()))
		sem.Release()
		p.Hold(1)
		order = append(order, fmt.Sprintf("g held at %d", p.Now()))
	})
	k.Spawn("s", func(p *Proc) {
		sem.Acquire(p) // parks part-way through the body until t=3
		order = append(order, fmt.Sprintf("s acquired at %d", p.Now()))
		p.Hold(2)
		order = append(order, fmt.Sprintf("s held at %d", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[g release at 3 s acquired at 3 g held at 4 s held at 5]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestStepBarrierAwait: the last arriver trips
// the barrier and continues first; the parked parties then resume at
// the trip time in arrival order.
func TestStepBarrierAwait(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(k, 3)
	var events []string
	party := func(name string, arrive Time) {
		k.Spawn(name, func(p *Proc) {
			p.Hold(arrive)
			tripped := bar.Await(p)
			events = append(events, fmt.Sprintf("%s tripped=%v at %d", name, tripped, p.Now()))
		})
	}
	party("s2", 5)
	party("s1", 0)
	party("g", 2)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[s2 tripped=true at 5 s1 tripped=false at 5 g tripped=false at 5]"
	if got := fmt.Sprint(events); got != want {
		t.Fatalf("events = %s, want %s", got, want)
	}
	if bar.Generation() != 1 {
		t.Fatalf("generation %d, want 1", bar.Generation())
	}
}

// TestStepDefer: a body's defer runs exactly once
// at retirement — after the body's last statement, at the finish time,
// with Killed unset — and before the joiner resumes.
func TestStepDefer(t *testing.T) {
	k := NewKernel()
	var order []string
	c := k.Spawn("c", func(p *Proc) {
		defer func() { order = append(order, fmt.Sprintf("defer at %d killed=%v", p.Now(), p.Killed())) }()
		p.Hold(3)
		order = append(order, "body done")
	})
	k.Spawn("j", func(p *Proc) {
		p.Join(c)
		order = append(order, fmt.Sprintf("joiner resumed at %d", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[body done defer at 3 killed=false joiner resumed at 3]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestStepKillWaiting: a process killed while parked on a queue runs
// its defers with Killed and Unwinding set, and its joiner resumes at
// the kill time. The dead waiter stays enrolled until the queue is next
// signalled, which discards it instead of waking it.
func TestStepKillWaiting(t *testing.T) {
	k := NewKernel()
	q := &WaitQueue{}
	sawKilled := false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { sawKilled = p.Killed() && p.Unwinding() }()
		q.Wait(p)
		t.Error("victim resumed past its kill point")
	})
	joined := Time(-1)
	woke := true
	k.Spawn("watcher", func(p *Proc) {
		p.Hold(10)
		victim.Kill()
		p.Join(victim)
		joined = p.Now()
		woke = q.Signal(k)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawKilled {
		t.Fatal("victim's defer did not observe Killed and Unwinding")
	}
	if joined != 10 {
		t.Fatalf("join completed at t=%d, want 10", joined)
	}
	if woke {
		t.Fatal("Signal woke a killed waiter")
	}
	if q.Len() != 0 {
		t.Fatalf("killed waiter still enrolled after a signal (len=%d)", q.Len())
	}
}

// TestStepKillNew: a process spawned mid-run and killed by its parent
// before its first activation never runs; its pending start retires it
// at the spawn time, releasing the parent's join there.
func TestStepKillNew(t *testing.T) {
	k := NewKernel()
	ran := false
	joined := Time(-1)
	var victim *Proc
	k.Spawn("parent", func(p *Proc) {
		p.Hold(5)
		victim = k.Spawn("victim", func(*Proc) { ran = true })
		victim.Kill()
		p.Join(victim)
		joined = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed-before-start body ran")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatal("victim not retired as killed")
	}
	if joined != 5 {
		t.Fatalf("join completed at t=%d, want 5", joined)
	}
}

// TestStepKillSelf: a self-kill after a hold unwinds the
// process's own defers with Killed set and releases its joiner at the
// kill time, while the rest of the simulation runs on.
func TestStepKillSelf(t *testing.T) {
	k := NewKernel()
	sawKilled := false
	suicidal := k.Spawn("suicidal", func(p *Proc) {
		defer func() { sawKilled = p.Killed() }()
		p.Hold(4)
		p.Kill()
		t.Error("Kill returned on self-kill")
	})
	joined := Time(-1)
	k.Spawn("joiner", func(p *Proc) {
		p.Join(suicidal)
		joined = p.Now()
	})
	k.Spawn("bystander", func(p *Proc) { p.Hold(9) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawKilled || joined != 4 || k.Now() != 9 {
		t.Fatalf("sawKilled=%v joined=%d now=%d, want true,4,9", sawKilled, joined, k.Now())
	}
}

// TestStepDeadlockTeardown: a deadlocked run unwinds processes parked
// on every blocking primitive — wait queue, barrier, semaphore, mutex
// and join. Their defers see Unwinding without Killed (a teardown is
// not a kill), the live list empties and no goroutine leaks.
func TestStepDeadlockTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := &WaitQueue{}
	bar := NewBarrier(k, 3) // two arrivals: never trips
	sem := NewSemaphore(k, 0)
	mu := NewMutex(k)
	unwound := 0
	final := func(p *Proc) {
		if p.Unwinding() && !p.Killed() {
			unwound++
		}
	}
	waiter := k.Spawn("queue", func(p *Proc) { defer final(p); q.Wait(p) })
	k.Spawn("bar0", func(p *Proc) { defer final(p); bar.Await(p) })
	k.Spawn("bar1", func(p *Proc) { defer final(p); bar.Await(p) })
	k.Spawn("sem", func(p *Proc) { defer final(p); sem.Acquire(p) })
	k.Spawn("owner", func(p *Proc) { defer final(p); mu.Lock(p); q.Wait(p) })
	k.Spawn("locker", func(p *Proc) { defer final(p); mu.Lock(p) })
	k.Spawn("joiner", func(p *Proc) { defer final(p); p.Join(waiter) })
	var dead *ErrDeadlock
	if err := k.Run(); !errors.As(err, &dead) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if unwound != 7 {
		t.Fatalf("defers saw a teardown unwind on %d of 7 procs", unwound)
	}
	if live := k.Procs(); len(live) != 0 {
		t.Fatalf("%d procs still live after teardown, want 0", len(live))
	}
	waitGoroutines(t, base)
}

// TestStepPanicTeardown: a panic unwinds processes parked mid-hold, on
// a semaphore and in a join alike; the run names the panicking process
// and no goroutine leaks.
func TestStepPanicTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	sem := NewSemaphore(k, 0)
	unwound := 0
	held := k.Spawn("held", func(p *Proc) {
		defer func() { unwound++ }()
		p.Hold(1000)
	})
	k.Spawn("acquirer", func(p *Proc) {
		defer func() { unwound++ }()
		sem.Acquire(p) // never released
	})
	k.Spawn("joiner", func(p *Proc) {
		defer func() { unwound++ }()
		p.Join(held)
	})
	k.Spawn("bomb", func(p *Proc) {
		p.Hold(5)
		panic("boom")
	})
	var pp *ProcPanic
	if err := k.Run(); !errors.As(err, &pp) || pp.Proc != "bomb" {
		t.Fatalf("Run = %v, want ProcPanic from bomb", err)
	}
	if unwound != 3 {
		t.Fatalf("defers ran on %d of 3 parked procs", unwound)
	}
	waitGoroutines(t, base)
}

// TestStepRunAfterSuccess: a kernel reused across successful Runs keeps
// its clock and its retired processes — a second run's process joins
// one that finished in the first without blocking — and a Run with
// nothing spawned completes at once.
func TestStepRunAfterSuccess(t *testing.T) {
	k := NewKernel()
	a := k.Spawn("a", func(p *Proc) { p.Hold(5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	joined := Time(-1)
	k.Spawn("b", func(p *Proc) {
		p.Join(a)
		joined = p.Now()
		p.Hold(3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("empty third Run: %v", err)
	}
	if joined != 5 || k.Now() != 8 {
		t.Fatalf("joined=%d now=%d, want 5,8", joined, k.Now())
	}
}

// ---------------------------------------------------------------------------
// Run-to-run equivalence over joins and barriers.
// TestFastPathObservationalEquivalence covers holds, timers and yields;
// this generator adds child spawns with joins and lockstep barrier
// rounds, the primitives whose wakes come from other processes.

type equivOpKind uint8

const (
	opHold equivOpKind = iota
	opChild
	opBarrier
)

type equivOp struct {
	kind equivOpKind
	d    Time
}

// genEquivProgram derives per-proc op lists from seed. Barrier ops are
// emitted in lockstep rounds so every proc arrives the same number of
// times and the program cannot deadlock.
func genEquivProgram(seed int64) (nProcs int, prog [][]equivOp) {
	rng := rand.New(rand.NewSource(seed))
	nProcs = 2 + rng.Intn(4)
	rounds := 1 + rng.Intn(4)
	useBarrier := rng.Intn(2) == 0
	prog = make([][]equivOp, nProcs)
	for i := range prog {
		for r := 0; r < rounds; r++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				switch rng.Intn(3) {
				case 0, 1:
					prog[i] = append(prog[i], equivOp{kind: opHold, d: Time(rng.Intn(10))})
				case 2:
					prog[i] = append(prog[i], equivOp{kind: opChild})
				}
			}
			if useBarrier {
				prog[i] = append(prog[i], equivOp{kind: opBarrier})
			}
		}
	}
	return nProcs, prog
}

func buildEquivProgram(seed int64) []string {
	nProcs, prog := genEquivProgram(seed)
	k := NewKernel()
	k.MaxEvents = 200_000
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	bar := NewBarrier(k, nProcs)
	for i := 0; i < nProcs; i++ {
		i := i
		ops := prog[i]
		childName := fmt.Sprintf("p%d/c", i)
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, o := range ops {
				switch o.kind {
				case opHold:
					p.Hold(o.d)
					logf("p%d hold %d at %d", i, j, p.Now())
				case opChild:
					c := k.Spawn(childName, func(c *Proc) {
						c.Hold(3)
						logf("p%d child at %d", i, c.Now())
					})
					p.Join(c)
					logf("p%d joined %d at %d", i, j, p.Now())
				case opBarrier:
					bar.Await(p)
					logf("p%d barrier %d at %d", i, j, p.Now())
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		trace = append(trace, "ERR "+err.Error())
	}
	return trace
}

// TestStepObservationalEquivalence runs the join-and-barrier generator
// twice per seed and requires identical, non-empty traces: no join or
// barrier release is reordered or retimed from one run to the next.
func TestStepObservationalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		return sameTrace(buildEquivProgram(seed), buildEquivProgram(seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
