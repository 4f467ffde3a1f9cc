package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines fails t unless the goroutine count falls back to base
// within two seconds; exited goroutines take a moment to leave the
// count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweep pins the fan-out helper's contract: every index runs
// exactly once at any width, a panic re-raises the lowest panicking
// index's value on the caller only after every cell has returned, and
// no worker outlives the call.
func TestSweep(t *testing.T) {
	const n = 9
	for _, workers := range []int{1, 2, n + 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()

			var runs [n]atomic.Int32
			sweep(workers, n, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("cell %d ran %d times, want 1", i, got)
				}
			}
			waitGoroutines(t, base)

			// Cells 3 and 5 panic; the last cell is slow, so a re-panic
			// that did not wait for every cell would be caught. A panic
			// left on a worker goroutine would crash the test binary
			// instead of reaching this recover.
			var returned atomic.Int32
			func() {
				defer func() {
					if got := recover(); got != "cell 3" {
						t.Errorf("re-panicked %v, want cell 3's value", got)
					}
					if got := returned.Load(); got != n {
						t.Errorf("re-panicked after %d of %d cells returned", got, n)
					}
				}()
				sweep(workers, n, func(i int) {
					defer returned.Add(1)
					switch i {
					case 3, 5:
						panic(fmt.Sprintf("cell %d", i))
					case n - 1:
						time.Sleep(20 * time.Millisecond)
					}
				})
				t.Error("sweep returned normally after a cell panicked")
			}()
			waitGoroutines(t, base)
		})
	}
}
