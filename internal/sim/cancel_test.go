package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// waitGoroutines polls until the live goroutine count is back at or
// below base (the runtime needs a beat to recycle exited goroutines),
// failing the test if it never settles.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, want <= %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlockUnwindsParkedGoroutines is the leak bugfix's proof: an
// error-terminated Run must strand no parked process's goroutine.
func TestDeadlockUnwindsParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := &WaitQueue{}
	defersRan := 0
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			defer func() { defersRan++ }()
			q.Wait(p) // never signaled
		})
	}
	var dead *ErrDeadlock
	if err := k.Run(); !errors.As(err, &dead) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if defersRan != 8 {
		t.Fatalf("deferred functions ran on %d of 8 unwound procs", defersRan)
	}
	if live := k.Procs(); len(live) != 0 {
		t.Fatalf("%d procs still live after teardown, want 0", len(live))
	}
	waitGoroutines(t, base)
}

// TestPanicUnwindsParkedGoroutines: same guarantee when the error is a
// process panic rather than a deadlock.
func TestPanicUnwindsParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("held%d", i), func(p *Proc) { p.Hold(1000) })
	}
	k.Spawn("bomb", func(p *Proc) {
		p.Hold(1)
		panic("boom")
	})
	var pp *ProcPanic
	if err := k.Run(); !errors.As(err, &pp) || pp.Proc != "bomb" {
		t.Fatalf("Run = %v, want ProcPanic from bomb", err)
	}
	waitGoroutines(t, base)
}

// TestEventLimitUnwindsParkedGoroutines: and when the event budget runs
// out mid-flight.
func TestEventLimitUnwindsParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.MaxEvents = 50
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Yield()
			}
		})
	}
	var lim *ErrEventLimit
	if err := k.Run(); !errors.As(err, &lim) {
		t.Fatalf("Run = %v, want ErrEventLimit", err)
	}
	waitGoroutines(t, base)
}

// TestTeardownOrder pins the order in which an error-terminated Run
// unwinds parked bodies, on Run's goroutine: in spawn order (not park
// order), and the process that detected the error from inside its own
// park last. Every unwinding defer sees Unwinding. s, spawned first,
// detects the error; x, y and z park in reverse spawn order.
func TestTeardownOrder(t *testing.T) {
	cases := []struct {
		name      string
		maxEvents int64
		s         func(k *Kernel, p *Proc)
		sParked   bool // s detects the error from inside its own park
		target    any  // errors.As target for Run's error
	}{
		{"deadlock", 0, func(k *Kernel, p *Proc) {
			p.Hold(10)
			(&WaitQueue{}).Wait(p)
		}, true, new(*ErrDeadlock)},
		// The panicking body is not parked: its own defer runs during
		// its panic, before teardown.
		{"panic", 0, func(k *Kernel, p *Proc) {
			p.Hold(10)
			panic("boom")
		}, false, new(*ProcPanic)},
		{"event-limit", 50, func(k *Kernel, p *Proc) {
			p.Hold(10)
			for {
				p.Yield()
			}
		}, true, new(*ErrEventLimit)},
		{"interrupt", 0, func(k *Kernel, p *Proc) {
			p.Hold(10)
			k.Interrupt("stop")
			p.Hold(1)
		}, true, new(*ErrInterrupted)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			k.MaxEvents = tc.maxEvents
			var order []string
			record := func(p *Proc) {
				if !p.Unwinding() {
					t.Errorf("%s's defer ran without Unwinding", p.Name())
				}
				order = append(order, p.Name())
			}
			k.Spawn("s", func(p *Proc) {
				if tc.sParked {
					defer record(p)
				}
				tc.s(k, p)
			})
			for i, name := range []string{"x", "y", "z"} {
				d := Time(3 - i)
				k.Spawn(name, func(p *Proc) {
					defer record(p)
					p.Hold(d)
					(&WaitQueue{}).Wait(p)
				})
			}
			if err := k.Run(); !errors.As(err, tc.target) {
				t.Fatalf("Run = %v, want %T", err, tc.target)
			}
			want := "x y z"
			if tc.sParked {
				want += " s"
			}
			if got := strings.Join(order, " "); got != want {
				t.Fatalf("unwind order %q, want %q", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestGoexitInBodyUnwindsAndPropagates: runtime.Goexit in a body (what
// t.FailNow calls) is not a return. Run unwinds every other parked
// process and the Goexit then ends Run's goroutine, so Run never
// returns and no goroutine is left behind.
func TestGoexitInBodyUnwindsAndPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	unwound := false
	k.Spawn("parked", func(p *Proc) {
		defer func() { unwound = p.Unwinding() }()
		(&WaitQueue{}).Wait(p)
	})
	k.Spawn("exiter", func(p *Proc) {
		p.Hold(1)
		runtime.Goexit()
	})
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		k.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned after a body called runtime.Goexit")
	}
	if !unwound {
		t.Fatal("the parked body's defer did not run as an unwind")
	}
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("re-Run after a Goexit = %v, want ErrStopped", err)
	}
	waitGoroutines(t, base)
}

// TestCallbackPanicUnwindsAndPropagates: a panicking Schedule callback
// is a kernel bug, not a process panic. It propagates out of Run, but
// only after every parked process has unwound, even when the callback
// ran inside another process's park.
func TestCallbackPanicUnwindsAndPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	unwound := false
	k.Spawn("parked", func(p *Proc) {
		defer func() { unwound = p.Unwinding() }()
		(&WaitQueue{}).Wait(p)
	})
	k.Spawn("holder", func(p *Proc) {
		k.Schedule(5, func() { panic("callback boom") })
		p.Hold(10) // dispatches the callback from inside this park
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != "callback boom" {
		t.Fatalf("Run panicked with %v, want the callback's panic", got)
	}
	if !unwound {
		t.Fatal("the parked body's defer did not run as an unwind")
	}
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("re-Run after a callback panic = %v, want ErrStopped", err)
	}
	waitGoroutines(t, base)
}

// TestRunAfterErrorReturnsErrStopped pins the defined re-Run semantics:
// after an error the kernel is dead, and says so.
func TestRunAfterErrorReturnsErrStopped(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { (&WaitQueue{}).Wait(p) })
	if err := k.Run(); err == nil {
		t.Fatal("first Run should deadlock")
	}
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("second Run = %v, want ErrStopped", err)
	}
}

// TestRunAfterSuccessStillWorks: a nil-error Run does not poison the
// kernel; more work can be spawned and run.
func TestRunAfterSuccessStillWorks(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) { p.Hold(5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	k.Spawn("b", func(p *Proc) { p.Hold(5); ran = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || k.Now() != 10 {
		t.Fatalf("second Run: ran=%v now=%d, want true, 10", ran, k.Now())
	}
}

// TestKillWaitingProc: killing a process parked on a queue unwinds it
// (defers run), wakes its joiners, and lets the rest of the simulation
// complete normally.
func TestKillWaitingProc(t *testing.T) {
	k := NewKernel()
	q := &WaitQueue{}
	deferRan := false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { deferRan = true }()
		q.Wait(p)
		t.Error("victim resumed past its kill point")
	})
	joined := Time(-1)
	k.Spawn("watcher", func(p *Proc) {
		p.Hold(10)
		victim.Kill()
		p.Join(victim)
		joined = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !deferRan {
		t.Fatal("victim's defer did not run")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatal("victim not retired as killed")
	}
	if joined != 10 {
		t.Fatalf("join completed at t=%d, want 10", joined)
	}
}

// TestKillHeldProc: killing a process parked in Hold unwinds it at the
// kill time; the hold's own wake goes stale and is ignored.
func TestKillHeldProc(t *testing.T) {
	k := NewKernel()
	reached := false
	victim := k.Spawn("victim", func(p *Proc) {
		p.Hold(100)
		reached = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Hold(3)
		victim.Kill()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("victim survived its kill")
	}
	if k.Now() != 100 {
		// The stale wake at t=100 still drains from the queue (ignored),
		// so the clock ends there.
		t.Fatalf("end time %d, want 100", k.Now())
	}
}

// TestKillNewProc: a process killed before its first activation is
// retired without its body ever running.
func TestKillNewProc(t *testing.T) {
	k := NewKernel()
	ran := false
	victim := k.Spawn("victim", func(p *Proc) { ran = true })
	victim.Kill()
	joinedEarly := false
	k.Spawn("joiner", func(p *Proc) {
		p.Join(victim)
		joinedEarly = p.Now() == 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed-before-start body ran")
	}
	if !victim.Done() || !joinedEarly {
		t.Fatalf("victim done=%v joinedEarly=%v, want true,true", victim.Done(), joinedEarly)
	}
}

// TestKillDoneNoop: killing a finished process changes nothing.
func TestKillDoneNoop(t *testing.T) {
	k := NewKernel()
	a := k.Spawn("a", func(p *Proc) {})
	k.Spawn("b", func(p *Proc) {
		p.Join(a)
		a.Kill()
		p.Hold(7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Killed() {
		t.Fatal("Kill of a done proc should be a no-op, not mark it killed")
	}
	if k.Now() != 7 {
		t.Fatalf("end time %d, want 7", k.Now())
	}
}

// TestKillSelf: a process may kill itself; Kill does not return, defers
// run, and the simulation continues.
func TestKillSelf(t *testing.T) {
	k := NewKernel()
	deferRan := false
	k.Spawn("suicidal", func(p *Proc) {
		defer func() { deferRan = true }()
		p.Hold(4)
		p.Kill()
		t.Error("Kill returned on self-kill")
	})
	k.Spawn("bystander", func(p *Proc) { p.Hold(9) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !deferRan || k.Now() != 9 {
		t.Fatalf("deferRan=%v now=%d, want true,9", deferRan, k.Now())
	}
}

// TestSignalSkipsKilledWaiter: a signal is never consumed by a killed
// process — it passes to the next live waiter.
func TestSignalSkipsKilledWaiter(t *testing.T) {
	k := NewKernel()
	q := &WaitQueue{}
	got := ""
	spawnWaiter := func(name string) *Proc {
		return k.Spawn(name, func(p *Proc) {
			q.Wait(p)
			got = name
		})
	}
	first := spawnWaiter("first")
	spawnWaiter("second")
	k.Spawn("ctl", func(p *Proc) {
		p.Hold(1) // both waiters parked
		first.Kill()
		if !q.Signal(k) {
			t.Error("Signal found no live waiter")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "second" {
		t.Fatalf("signal went to %q, want second", got)
	}
}

// TestWaitTimeout covers the timed wait: expiry resumes the waiter with
// false; an in-time signal returns true and defuses the timer even if
// the process immediately re-waits on the same queue.
func TestWaitTimeout(t *testing.T) {
	k := NewKernel()
	q := &WaitQueue{}
	var results []string
	k.Spawn("waiter", func(p *Proc) {
		ok := q.WaitTimeout(p, 10)
		results = append(results, fmt.Sprintf("first ok=%v at=%d", ok, p.Now()))
		ok = q.WaitTimeout(p, 10)
		results = append(results, fmt.Sprintf("second ok=%v at=%d", ok, p.Now()))
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Hold(4)
		q.Signal(k) // inside the first window
		// nothing for the second window: it must time out at 4+10=14,
		// after the first wait's stale timer fires harmlessly at 10
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first ok=true at=4", "second ok=false at=14"}
	for i, w := range want {
		if i >= len(results) || results[i] != w {
			t.Fatalf("results = %q, want %q", results, want)
		}
	}
}

// TestWaitTimeoutZero: a zero timeout still yields to already-queued
// same-time events before expiring.
func TestWaitTimeoutZero(t *testing.T) {
	k := NewKernel()
	q := &WaitQueue{}
	k.Spawn("w", func(p *Proc) {
		if ok := q.WaitTimeout(p, 0); ok {
			t.Error("zero-timeout wait with no signal reported success")
		}
		if p.Now() != 0 {
			t.Errorf("zero-timeout wait advanced time to %d", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// buildKillProgram extends the hold generator shape with a controller
// that kills random processes at random times, mixed with semaphore
// traffic so kills land on waiting, held and running procs alike. Error
// outcomes (a kill can strand a semaphore's permits and deadlock the
// rest) are part of the trace and must be deterministic too.
func buildKillProgram(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	k.MaxEvents = 200_000
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	sem := NewSemaphore(k, 1+rng.Intn(2))
	nProcs := 2 + rng.Intn(4)
	procs := make([]*Proc, nProcs)
	for i := 0; i < nProcs; i++ {
		i := i
		steps := 2 + rng.Intn(6)
		holds := make([]Time, steps)
		useSem := make([]bool, steps)
		for j := range holds {
			holds[j] = Time(rng.Intn(12))
			useSem[j] = rng.Intn(2) == 0
		}
		procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer logf("p%d defer at %d killed=%v", i, p.Now(), p.Killed())
			for j := range holds {
				if useSem[j] {
					sem.Acquire(p)
					p.Hold(holds[j])
					sem.Release()
				} else {
					p.Hold(holds[j])
				}
				logf("p%d step %d at %d", i, j, p.Now())
			}
		})
	}
	nKills := 1 + rng.Intn(3)
	for j := 0; j < nKills; j++ {
		at := Time(rng.Intn(40))
		victim := procs[rng.Intn(nProcs)]
		k.Schedule(at, func() {
			logf("kill %s at %d (done=%v)", victim.Name(), k.Now(), victim.Done())
			victim.Kill()
		})
	}
	if err := k.Run(); err != nil {
		trace = append(trace, "ERR "+err.Error())
	}
	return trace
}

// TestKillFastPathEquivalence runs the kill generator twice per seed
// and requires identical, non-empty traces: kills that tear procs out
// mid-hold, mid-wait and before their start unwind in the same order on
// every run.
func TestKillFastPathEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		return sameTrace(buildKillProgram(seed), buildKillProgram(seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptStopsRunningKernel exercises the cross-goroutine abort:
// a compute-bound simulation (pure Hold loop) must stop at the next
// event boundary after Interrupt, unwind every parked process, and
// report ErrInterrupted. A lone spinner owns the clock, so its park
// returns in place on every hold and never switches coroutines; it
// must still be stopped.
func TestInterruptStopsRunningKernel(t *testing.T) {
	for _, spinners := range []int{1, 4} {
		base := runtime.NumGoroutine()
		k := NewKernel()
		defersRan := 0
		for i := 0; i < spinners; i++ {
			k.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
				defer func() { defersRan++ }()
				for {
					p.Hold(1)
				}
			})
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			k.Interrupt("host deadline")
		}()
		err := k.Run()
		var ie *ErrInterrupted
		if !errors.As(err, &ie) {
			t.Fatalf("%d spinners: Run() = %v, want ErrInterrupted", spinners, err)
		}
		if ie.Reason != "host deadline" {
			t.Errorf("%d spinners: reason = %q", spinners, ie.Reason)
		}
		if ie.At != k.Now() {
			t.Errorf("%d spinners: interrupt at t=%d, kernel now t=%d", spinners, ie.At, k.Now())
		}
		if defersRan != spinners {
			t.Errorf("%d deferred funcs ran, want %d (all procs unwound)", defersRan, spinners)
		}
		if err := k.Run(); !errors.Is(err, ErrStopped) {
			t.Errorf("%d spinners: re-Run after interrupt = %v, want ErrStopped", spinners, err)
		}
		waitGoroutines(t, base)
	}
}

// TestInterruptBeforeRun pins the never-started case: the flag is
// honoured on the first dispatch, before any process activates.
func TestInterruptBeforeRun(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("p", func(p *Proc) { ran = true })
	k.Interrupt("early")
	var ie *ErrInterrupted
	if err := k.Run(); !errors.As(err, &ie) {
		t.Fatalf("Run() = %v, want ErrInterrupted", err)
	}
	if ran {
		t.Error("process body ran despite pre-Run interrupt")
	}
}
