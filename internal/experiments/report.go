package experiments

import (
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// CheckRegistry renders one experiment's checks into a metrics
// registry: a passed gauge per check plus totals, all labeled with
// the experiment id.
func CheckRegistry(r Result) *obs.Registry {
	reg := obs.NewRegistry()
	el := obs.L("experiment", r.ID)
	failed := 0
	for _, c := range r.Checks {
		v := 0.0
		if !c.Pass {
			failed++
		} else {
			v = 1
		}
		reg.Gauge("stampbench_check_passed", "Whether the named claim check passed.",
			el, obs.L("check", c.Name)).Set(v)
	}
	reg.Gauge("stampbench_checks_total", "Claim checks run.", el).Set(float64(len(r.Checks)))
	reg.Gauge("stampbench_checks_failed", "Claim checks that failed.", el).Set(float64(failed))
	ok := 0.0
	if r.Passed() {
		ok = 1
	}
	reg.Gauge("stampbench_passed", "Whether every check of the experiment passed.", el).Set(ok)
	return reg
}

// DumpMetrics writes one experiment's check registry as a
// Prometheus-text dump to dir/<id>.prom.
func DumpMetrics(dir string, r Result) error {
	f, err := os.Create(filepath.Join(dir, r.ID+".prom"))
	if err != nil {
		return err
	}
	if err := CheckRegistry(r).WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
