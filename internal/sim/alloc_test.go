package sim

import (
	"runtime"
	"testing"
)

// The dispatch hot path must not allocate: events live inline in the
// heap's slice (spare capacity is the free pool), a park whose wake is
// the next event returns in place, and any other park is a coroutine
// switch, which allocates nothing. These tests pin that property so a future "small" change (an
// interface box, a closure capture, a per-event pointer) fails loudly
// rather than silently regressing every benchmark.

// TestDispatchPathZeroAlloc covers a lone process advancing its clock:
// each Hold pushes a wake that is the next event, and must be
// allocation-free.
func TestDispatchPathZeroAlloc(t *testing.T) {
	k := NewKernel()
	var avg float64
	k.Spawn("p", func(p *Proc) {
		p.Hold(1) // warm up
		avg = testing.AllocsPerRun(500, func() { p.Hold(1) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("lone Hold allocates %.2f/run, want 0", avg)
	}
}

// TestSlowPathZeroAllocSteadyState covers a park that dispatches other
// work first: a timer callback inside every hold window runs before the
// wake (the heap is never empty at the hold), yet after warm-up — heap
// capacity grown — the steady state must be allocation-free.
func TestSlowPathZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	var avg float64
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm up heap + scheduler pools
			k.Schedule(1, nopFn)
			p.Hold(2)
		}
		avg = testing.AllocsPerRun(500, func() {
			k.Schedule(1, nopFn)
			p.Hold(2)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Hold past a timer allocates %.2f/run, want 0", avg)
	}
}

// TestCrossProcHandoffZeroAllocSteadyState covers the handoff between
// two process coroutines: each measured round is two wakes, each a
// yield to Run's trampoline and a resume of the other process.
// AllocsPerRun reads global malloc counters and the kernel is strictly
// sequential, so the partner's allocations (there must be none) are
// counted too.
func TestCrossProcHandoffZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	sa := NewSemaphore(k, 0)
	sb := NewSemaphore(k, 0)
	const warm, measured = 64, 500
	var avg float64
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < warm; i++ {
			sa.Release()
			sb.Acquire(p)
		}
		avg = testing.AllocsPerRun(measured, func() {
			sa.Release()
			sb.Acquire(p)
		})
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < warm+measured+1; i++ {
			sa.Acquire(p)
			sb.Release()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("ping-pong round allocates %.2f/run, want 0", avg)
	}
}

// TestSpawnChurnAllocs covers process churn: a child that starts, holds,
// returns and is joined runs on a coroutine an earlier child returned,
// so in steady state the cycle allocates only the Proc and the joiner
// slot. The coroutines themselves are stopped when Run returns.
func TestSpawnChurnAllocs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	retired := 0
	child := func(c *Proc) { c.Hold(1); retired++ }
	const warm, measured = 9, 90
	var avg float64
	k.Spawn("root", func(p *Proc) {
		for i := 0; i < warm; i++ {
			p.Join(k.Spawn("child", child))
		}
		// AllocsPerRun adds one unmeasured warm-up call: 100 children.
		avg = testing.AllocsPerRun(measured, func() {
			p.Join(k.Spawn("child", child))
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if retired != 100 {
		t.Fatalf("%d children retired, want 100", retired)
	}
	if avg > 2 {
		t.Fatalf("spawn → hold → join cycle allocates %.2f/run, want <= 2 (Proc and joiner slot)", avg)
	}
	waitGoroutines(t, base)
}
