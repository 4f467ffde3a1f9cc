package experiments

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestRecoveryWithProfiler runs the recovery experiment — whose crash
// runs tear live processes down through a failing kernel — with a
// virtual-time profiler on every System. The profiler is a pure
// observer, so the output must still match the golden, and every
// process that was charged any time must have its profile sealed
// (nonzero Total), including the ones unwound by the failing run.
func TestRecoveryWithProfiler(t *testing.T) {
	var profs []*obs.Profiler
	remove := core.AddGlobalOption(func(sys *core.System) {
		pf := obs.NewProfiler()
		profs = append(profs, pf)
		sys.Obs = &obs.Observer{Prof: pf}
	})
	defer remove()

	res, err := Run("recovery")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != string(want) {
		t.Fatalf("recovery with a profiler attached diverged from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	if len(profs) == 0 {
		t.Fatal("no System was built")
	}
	sealed := 0
	for _, pf := range profs {
		for _, p := range pf.Profiles() {
			if p.Attributed() == 0 {
				continue
			}
			if p.Total == 0 {
				t.Errorf("profile %q has %d attributed ticks but was never sealed", p.Name, p.Attributed())
			}
			sealed++
		}
	}
	if sealed == 0 {
		t.Fatal("no profile recorded any time; the check is vacuous")
	}
}
