package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenPath returns the checked-in reference output for an experiment.
// The goldens were captured from the pre-optimization simulator (the
// container/heap kernel with no fast path), so they pin every
// virtual-time quantity — vticks, venergy, κ, check verdicts — across
// performance work: any optimization that changes a single byte of any
// experiment's output is a correctness bug, not a speedup.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".golden")
}

// TestGoldenOutputs runs every registered experiment twice sequentially
// and compares the full rendered output (tables, checks and notes)
// against the golden byte-for-byte. The double run also catches any
// run-to-run nondeterminism a single comparison would miss.
func TestGoldenOutputs(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", id, err)
			}
			for round := 1; round <= 2; round++ {
				res, err := Run(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.String(); got != string(want) {
					t.Fatalf("run %d of %s diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
						round, id, got, want)
				}
			}
		})
	}
}

// TestGoldenOutputsParallel runs the whole suite through the parallel
// harness and checks every result against its golden, proving the
// worker pool changes wall-clock behavior only — virtual-time results
// are identical to sequential runs regardless of worker count.
func TestGoldenOutputsParallel(t *testing.T) {
	ids := IDs()
	for _, workers := range []int{2, len(ids)} {
		results := RunAllParallel(workers)
		if len(results) != len(ids) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(ids))
		}
		for i, res := range results {
			if res.ID != ids[i] {
				t.Fatalf("workers=%d: result %d is %q, want %q (id order broken)", workers, i, res.ID, ids[i])
			}
			want, err := os.ReadFile(goldenPath(res.ID))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", res.ID, err)
			}
			if got := res.String(); got != string(want) {
				t.Errorf("workers=%d: parallel run of %s diverged from golden", workers, res.ID)
			}
		}
	}
}

// TestGoldenOutputsStepWorkers steps the parallel harness through the
// worker counts TestGoldenOutputsParallel skips — a single worker and
// an intermediate pool — and requires every golden at each.
func TestGoldenOutputsStepWorkers(t *testing.T) {
	ids := IDs()
	for _, workers := range []int{1, 4} {
		results := RunAllParallel(workers)
		if len(results) != len(ids) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(ids))
		}
		for _, res := range results {
			want, err := os.ReadFile(goldenPath(res.ID))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", res.ID, err)
			}
			if got := res.String(); got != string(want) {
				t.Fatalf("workers=%d: %s diverged from golden", workers, res.ID)
			}
		}
	}
}

// TestGoldenOutputsGoroutineMode reruns every experiment against its
// golden and requires each to leave no goroutine behind. Every process
// body is a host goroutine, so a process the kernel failed to retire —
// after a clean finish, a kill, or an error teardown such as the
// recovery and faults crash runs — would outlive its experiment here.
func TestGoldenOutputsGoroutineMode(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", id, err)
			}
			base := runtime.NumGoroutine()
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String(); got != string(want) {
				t.Fatalf("%s diverged from golden\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
			waitGoroutines(t, base)
		})
	}
}
