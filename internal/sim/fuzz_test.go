package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildRandomProgram spawns a pseudo-random process structure derived
// entirely from seed: holds, semaphore traffic, child spawning and
// joins. It returns the trace of observable steps.
func buildRandomProgram(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	k.MaxEvents = 200_000
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	sem := NewSemaphore(k, 1+rng.Intn(3))
	nProcs := 2 + rng.Intn(5)
	for i := 0; i < nProcs; i++ {
		i := i
		steps := 1 + rng.Intn(5)
		holds := make([]Time, steps)
		for j := range holds {
			holds[j] = Time(rng.Intn(20))
		}
		spawnChild := rng.Intn(2) == 0
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, h := range holds {
				sem.Acquire(p)
				p.Hold(h)
				logf("p%d step %d at %d", i, j, p.Now())
				sem.Release()
			}
			if spawnChild {
				child := k.Spawn(fmt.Sprintf("p%d/c", i), func(c *Proc) {
					c.Hold(3)
					logf("p%d child at %d", i, c.Now())
				})
				p.Join(child)
				logf("p%d joined at %d", i, p.Now())
			}
		})
	}
	if err := k.Run(); err != nil {
		return []string{"ERR " + err.Error()}
	}
	return trace
}

// TestDeterminismFuzz replays random programs and requires bit-equal
// traces — the reproducibility property every measurement in this
// repository rests on.
func TestDeterminismFuzz(t *testing.T) {
	f := func(seed int64) bool {
		a := buildRandomProgram(seed)
		b := buildRandomProgram(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sameTrace reports whether two runs of one seed produced the same,
// non-empty trace.
func sameTrace(a, b []string) bool { return len(a) > 0 && slices.Equal(a, b) }

// buildHoldProgram is a generator biased toward holds: long stretches
// where one process owns the clock (its wake is the next event, so park
// returns in place), broken up by timers landing inside, at the edge
// of, or outside hold windows, plus Yields on empty and non-empty
// queues. The trace logs every observable (who ran, when, timer firing
// order).
func buildHoldProgram(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	k.MaxEvents = 200_000
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	nProcs := 1 + rng.Intn(3)
	for i := 0; i < nProcs; i++ {
		i := i
		steps := 5 + rng.Intn(15)
		type step struct {
			hold       Time
			timerDelay Time // -1: no timer
			yield      bool
		}
		prog := make([]step, steps)
		for j := range prog {
			s := &prog[j]
			s.hold = Time(rng.Intn(8))
			s.timerDelay = -1
			switch rng.Intn(4) {
			case 0:
				s.timerDelay = s.hold // lands exactly at the hold's wake time
			case 1:
				s.timerDelay = Time(rng.Intn(int(s.hold) + 2)) // inside or just past
			}
			s.yield = rng.Intn(3) == 0
		}
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, s := range prog {
				if s.timerDelay >= 0 {
					j, d := j, s.timerDelay
					k.Schedule(d, func() { logf("p%d timer %d at %d", i, j, k.Now()) })
				}
				p.Hold(s.hold)
				logf("p%d step %d at %d", i, j, p.Now())
				if s.yield {
					p.Yield()
					logf("p%d yielded %d at %d", i, j, p.Now())
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		return []string{"ERR " + err.Error()}
	}
	return trace
}

// TestFastPathObservationalEquivalence runs the hold-heavy generator
// twice per seed and requires identical, non-empty traces: a wake that
// is the next event and one that competes with timers and yields
// dispatch in the same order on every run.
func TestFastPathObservationalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		return sameTrace(buildHoldProgram(seed), buildHoldProgram(seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentSeedsDiffer guards against the generator being constant.
func TestDifferentSeedsDiffer(t *testing.T) {
	a := buildRandomProgram(1)
	b := buildRandomProgram(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical programs")
	}
}
