package sim

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFlakeHunt is the on-demand flake hunter behind `make flake-hunt`:
// it runs the kill and hold generators twice per seed and requires
// identical, non-empty traces, over FLAKE_HUNT_N fresh randomized
// seeds. Unlike the quick.Check suites, the seeds here are
// drawn from a wall-clock master seed, so every run explores new
// territory; each per-case seed is logged so any failure reproduces
// with FLAKE_HUNT_SEED. Skipped when FLAKE_HUNT_N is unset: the
// regular `go test` run already covers the pinned suites.
func TestFlakeHunt(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv("FLAKE_HUNT_N"))
	if err != nil || n <= 0 {
		t.Skip("set FLAKE_HUNT_N=<cases> to hunt (see `make flake-hunt`)")
	}
	master := time.Now().UnixNano()
	if s := os.Getenv("FLAKE_HUNT_SEED"); s != "" {
		master, err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad FLAKE_HUNT_SEED %q: %v", s, err)
		}
	}
	t.Logf("flake hunt: %d cases, master seed %d (rerun with FLAKE_HUNT_SEED=%d)", n, master, master)
	rng := rand.New(rand.NewSource(master))
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		t.Logf("case %d/%d seed %d", i+1, n, seed)

		if a, b := buildKillProgram(seed), buildKillProgram(seed); !sameTrace(a, b) {
			t.Fatalf("kill program diverged at seed %d\n-- first --\n%s\n-- second --\n%s",
				seed, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
		if a, b := buildHoldProgram(seed), buildHoldProgram(seed); !sameTrace(a, b) {
			t.Fatalf("hold program diverged at seed %d\n-- first --\n%s\n-- second --\n%s",
				seed, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
}
