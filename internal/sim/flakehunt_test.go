package sim

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFlakeHunt is the on-demand flake hunter behind `make flake-hunt`:
// it reruns the two execution-equivalence fuzzes — kill teardown and
// fast-path observational equivalence, each fast path against slow
// path — over FLAKE_HUNT_N fresh
// randomized seeds. Unlike the quick.Check suites, the seeds here are
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

		if fast, slow := buildKillProgram(seed, false), buildKillProgram(seed, true); !reflect.DeepEqual(fast, slow) {
			t.Fatalf("kill equivalence diverged at seed %d\n-- fast --\n%s\n-- slow --\n%s",
				seed, strings.Join(fast, "\n"), strings.Join(slow, "\n"))
		}
		if fast, slow := buildFastPathProgram(seed, false), buildFastPathProgram(seed, true); !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fast-path observational equivalence diverged at seed %d\n-- fast --\n%s\n-- slow --\n%s",
				seed, strings.Join(fast, "\n"), strings.Join(slow, "\n"))
		}
	}
}
