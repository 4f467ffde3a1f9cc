package experiments

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// runCorpusSplit splits the experiment ids into `shards` contiguous
// slices, runs the slices concurrently — each on its own pool of
// `workers` goroutines — and returns the results in id order.
func runCorpusSplit(shards, workers int) []Result {
	ids := IDs()
	out := make([]Result, len(ids))
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		next := new(atomic.Int64)
		next.Store(int64(s * len(ids) / shards))
		end := (s + 1) * len(ids) / shards
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < end; i = int(next.Add(1) - 1) {
					out[i], _ = Run(ids[i])
				}
			}()
		}
	}
	wg.Wait()
	return out
}

// TestGoldenOutputsUnderShards runs the whole corpus split into 1, 2
// and 4 shards that run concurrently in one process, each shard on 1,
// 2 or 4 workers, and requires every golden byte-identical at every
// layout. Every experiment builds its own Systems, so how the corpus is
// spread over host goroutines must be unobservable in its results.
func TestGoldenOutputsUnderShards(t *testing.T) {
	layouts := []struct{ shards, workers int }{
		{1, 1}, {2, 1}, {2, 2}, {2, 4}, {4, 1}, {4, 2}, {4, 4},
	}
	for _, l := range layouts {
		t.Run(fmt.Sprintf("shards=%d/workers=%d", l.shards, l.workers), func(t *testing.T) {
			for _, res := range runCorpusSplit(l.shards, l.workers) {
				want, err := os.ReadFile(goldenPath(res.ID))
				if err != nil {
					t.Fatalf("missing golden for %s: %v", res.ID, err)
				}
				if got := res.String(); got != string(want) {
					t.Fatalf("%s diverged from golden under shards=%d workers=%d\n--- got ---\n%s\n--- want ---\n%s",
						res.ID, l.shards, l.workers, got, want)
				}
			}
		})
	}
}
