package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunAllParallel executes every registered experiment on up to workers
// goroutines and returns the results in id order. workers <= 0 means
// one worker per CPU; workers == 1 runs the experiments one after
// another.
//
// Each experiment builds its own kernels and Systems, and everything
// package-level in the simulator stack is written only during init, so
// concurrent runs share no mutable state: every experiment's virtual
// time, energy and checks are bit-identical to a sequential run (the
// golden tests assert this). The experiments that build several
// independent Systems also fan their cells out with sweep, so
// parallelism changes only the wall-clock cost of the suite, at both
// levels.
func RunAllParallel(workers int) []Result {
	ids := IDs()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	out := make([]Result, len(ids))
	sweep(workers, len(ids), func(i int) { out[i], _ = Run(ids[i]) })
	return out
}

// sweep runs fn(0) … fn(n-1) on up to workers goroutines (at least
// one), handing the indices out in order, and returns once every call
// has returned.
//
// Each call must own its state: its own System, workload, fault
// injector and temp dir, writing only its own index of a results slice.
// Experiments pass runtime.GOMAXPROCS(0) and render from the results in
// index order afterwards, so their output does not depend on the width.
//
// A panicking call does not stop the others. Once all have returned,
// sweep re-panics the lowest panicking index's value on the caller's
// goroutine, where stampserve's runner and perfbench recover it as one
// failed run. Each index has its own slot, so the value re-raised does
// not depend on scheduling either.
func sweep(workers, n int, fn func(i int)) {
	panics := make([]any, n)
	cell := func(i int) {
		defer func() { panics[i] = recover() }()
		fn(i)
	}
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	//stamplint:allow determinism: harness fan-out across independent Systems, each its own deterministic run
	wg.Add(workers)
	for range workers {
		//stamplint:allow determinism: harness fan-out across independent Systems, each its own deterministic run
		go func() {
			//stamplint:allow determinism: harness fan-out across independent Systems, each its own deterministic run
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				cell(i)
			}
		}()
	}
	//stamplint:allow determinism: harness fan-out across independent Systems, each its own deterministic run
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
