package racedet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// The detector suite sharded over host goroutines: each shard runs its
// own detector-carrying System concurrently with the others, and every
// shard must reproduce the lone run exactly — detectors on Systems that
// share a process must not share happens-before state.

// concurrently runs fn(shard) on `shards` goroutines at once and waits for
// all of them.
func concurrently(shards int, fn func(shard int)) {
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s)
		}()
	}
	wg.Wait()
}

// TestExampleGoldensUnderShards reruns both pinned example reports at
// 1, 2 and 4 concurrent shards: every report must be byte-identical to
// the lone run's.
func TestExampleGoldensUnderShards(t *testing.T) {
	_, wantRacy := runRacy(t)
	_, wantFixed := runFixed(t)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			concurrently(shards, func(s int) {
				if _, got, err := runExample(RacyExample); err != nil || got != wantRacy {
					t.Errorf("racy report diverged on shard %d of %d (err %v)\n--- got ---\n%s--- want ---\n%s",
						s, shards, err, got, wantRacy)
				}
				d, got, err := runExample(FixedExample)
				if err != nil || got != wantFixed {
					t.Errorf("fixed report diverged on shard %d of %d (err %v)\n--- got ---\n%s--- want ---\n%s",
						s, shards, err, got, wantFixed)
				}
				if d != nil && d.Report() != nil {
					t.Errorf("fixed example reported a race on shard %d of %d", s, shards)
				}
			})
		})
	}
}

// TestJacobiDetectorEquivalenceUnderShards runs the same Jacobi
// problem, detector attached, at 1, 2 and 4 concurrent shards: every
// shard must report no race and reproduce the lone run's iterates,
// iteration count and final virtual time bit for bit.
func TestJacobiDetectorEquivalenceUnderShards(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := jacobi.Config{
			System: workload.NewLinearSystem(6+int(seed%5), seed),
			Iters:  8,
			Tol:    1e-6,
		}
		run := func() (jacobi.Result, int64, error) {
			sys := core.NewSystem(machine.Generic())
			d := Attach(sys)
			res, err := jacobi.Run(sys, cfg)
			if err != nil {
				return res, 0, fmt.Errorf("jacobi: %v", err)
			}
			if r := d.Report(); r != nil {
				return res, 0, fmt.Errorf("jacobi reported a race:\n%s", r)
			}
			return res, int64(sys.K.Now()), nil
		}
		base, baseT, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				concurrently(shards, func(s int) {
					got, gotT, err := run()
					if err == nil {
						err = sameJacobi(got, gotT, base, baseT)
					}
					if err != nil {
						t.Errorf("shard %d of %d: %v", s, shards, err)
					}
				})
			})
		}
	}
}

// sameJacobi reports the first difference between two detector-carrying
// Jacobi runs, or nil.
func sameJacobi(got jacobi.Result, gotT int64, base jacobi.Result, baseT int64) error {
	if gotT != baseT {
		return fmt.Errorf("virtual time diverged: %d, lone run %d", gotT, baseT)
	}
	if got.Iters != base.Iters {
		return fmt.Errorf("iteration count diverged: %d, lone run %d", got.Iters, base.Iters)
	}
	for i := range base.X {
		if got.X[i] != base.X[i] {
			return fmt.Errorf("iterate diverged at %d: %v, lone run %v", i, got.X[i], base.X[i])
		}
	}
	return nil
}
