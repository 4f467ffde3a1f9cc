package experiments

import (
	"runtime"
	"sync"
)

// RunAllParallel executes every registered experiment on a pool of
// worker goroutines and returns the results in id order, exactly as
// RunAll does. workers <= 0 means one worker per CPU.
//
// Each experiment builds its own kernel and system, and everything
// package-level in the simulator stack is written only during init, so
// concurrent runs share no mutable state: every experiment's virtual
// time, energy and checks are bit-identical to a sequential run (the
// golden test asserts this). Parallelism therefore changes only the
// wall-clock cost of the whole suite — on a multi-core host it
// approaches the longest single experiment instead of the sum.
func RunAllParallel(workers int) []Result {
	ids := IDs()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	out := make([]Result, len(ids))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		//stamplint:allow determinism: harness fan-out across whole experiments, each its own deterministic run
		wg.Add(1)
		//stamplint:allow determinism: harness fan-out across whole experiments, each its own deterministic run
		go func() {
			//stamplint:allow determinism: harness fan-out across whole experiments, each its own deterministic run
			defer wg.Done()
			for i := range idx {
				out[i], _ = Run(ids[i])
			}
		}()
	}
	for i := range ids {
		//stamplint:allow determinism: harness work distribution, outside any simulated run
		idx <- i
	}
	close(idx)
	//stamplint:allow determinism: harness fan-out across whole experiments, each its own deterministic run
	wg.Wait()
	return out
}
