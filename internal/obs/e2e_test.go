// End-to-end observability tests: run the paper's workloads with the
// full Observer attached and check the tentpole invariants — profiler
// categories sum to each process's T, the Chrome export stays loadable,
// and the model-drift gauges land inside the §4 tolerances the
// experiments enforce.
package obs_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/apsp"
	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func runJacobi(t *testing.T, n int, ob *obs.Observer) (*core.System, jacobi.Result) {
	t.Helper()
	sys := core.NewSystem(machine.Niagara(), core.WithObs(ob))
	ls := workload.NewLinearSystem(n, 7)
	res, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: 6, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

func TestProfilerCategoriesSumToProcessTotal(t *testing.T) {
	ob := obs.NewObserver()
	_, res := runJacobi(t, 16, ob)
	profiles := ob.Prof.Profiles()
	if len(profiles) != res.Group.Size() {
		t.Fatalf("%d profiles for %d processes", len(profiles), res.Group.Size())
	}
	for _, p := range profiles {
		if p.Total <= 0 {
			t.Fatalf("%s has total %d", p.Name, p.Total)
		}
		if p.Sum() != p.Total {
			t.Fatalf("%s categories sum %d != total %d", p.Name, p.Sum(), p.Total)
		}
		if p.Cats[obs.CatCompute] <= 0 {
			t.Fatalf("%s recorded no compute time", p.Name)
		}
	}
}

func TestChromeExportFromLiveRunIsLoadable(t *testing.T) {
	ob := obs.NewObserver()
	runJacobi(t, 8, ob)
	var b bytes.Buffer
	if err := ob.Trace.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &file); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	cats := map[any]bool{}
	for _, ev := range file.TraceEvents {
		cats[ev["cat"]] = true
	}
	for _, want := range []string{"proc", "unit", "round", "msg", "barrier"} {
		if !cats[want] {
			t.Fatalf("live jacobi trace missing %q spans (have %v)", want, cats)
		}
	}
}

// TestJacobiDriftWithinSection4Bounds mirrors the tolerance the jacobi
// experiment enforces: round-time prediction within 60% (latency
// overlap makes the closed form an upper-ish estimate) and energy
// within 30%.
func TestJacobiDriftWithinSection4Bounds(t *testing.T) {
	ob := &obs.Observer{Reg: obs.NewRegistry()}
	sys, res := runJacobi(t, 32, ob)
	model := jacobi.Model(sys, res.Group, 32)
	mt, me := jacobi.MeasuredRound(res.Group, 1)
	dT := obs.RecordDrift(ob.Reg, "jacobi", "T_sround", model.TSRound(), float64(mt))
	dE := obs.RecordDrift(ob.Reg, "jacobi", "E_sround", model.ESRound(), me)
	if dT.RelErr() >= 0.6 {
		t.Fatalf("T drift %.2f ≥ 0.6 (pred %.0f meas %d)", dT.RelErr(), model.TSRound(), mt)
	}
	if dE.RelErr() >= 0.3 {
		t.Fatalf("E drift %.2f ≥ 0.3 (pred %.0f meas %.0f)", dE.RelErr(), model.ESRound(), me)
	}
	ls := []obs.Label{obs.L("app", "jacobi"), obs.L("metric", "T_sround")}
	if ob.Reg.Gauge("stamp_model_drift_relerr", "", ls...).Value() != dT.RelErr() {
		t.Fatal("drift gauge not published")
	}
}

// TestAPSPDriftWithinBounds substitutes the measured κ into the cost
// model (as §4 does) and requires the round-time prediction within 30%.
func TestAPSPDriftWithinBounds(t *testing.T) {
	reg := obs.NewRegistry()
	sys := core.NewSystem(machine.Niagara(), core.WithObs(&obs.Observer{Reg: reg}))
	v := 16
	g := workload.NewRandomGraph(v, 0.25, 40, 13)
	res, err := apsp.Run(sys, apsp.Config{Graph: g, Mode: apsp.BulkSync})
	if err != nil {
		t.Fatal(err)
	}
	model, measT, _, ok := apsp.Model(res.Group)
	if !ok {
		t.Fatal("apsp run recorded no rounds")
	}
	d := obs.RecordDrift(reg, "apsp", "T_sround", model.TSRoundPaper(), measT)
	if d.RelErr() >= 0.3 {
		t.Fatalf("APSP T drift %.2f ≥ 0.3 (pred %.0f meas %.0f)", d.RelErr(), d.Predicted, d.Measured)
	}
}

// TestCollectMetricsIsIdempotent runs the collector twice and checks
// a histogram does not double-count.
func TestCollectMetricsIsIdempotent(t *testing.T) {
	ob := obs.NewObserver()
	sys, _ := runJacobi(t, 8, ob)
	sys.CollectMetrics()
	first := countRoundSamples(ob.Reg)
	sys.CollectMetrics()
	if again := countRoundSamples(ob.Reg); again != first {
		t.Fatalf("round histogram grew from %d to %d on re-collect", first, again)
	}
	if first == 0 {
		t.Fatal("round histogram empty after collect")
	}
	if ob.Reg.Gauge("stamp_stm_commits", "").Value() != 0 {
		// jacobi is not transactional; the gauge exists but is zero.
		t.Fatal("unexpected stm commits for jacobi")
	}
}

// countRoundSamples sums the _count series of the round-time histogram
// in the Prometheus exposition.
func countRoundSamples(r *obs.Registry) int64 {
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		return -1
	}
	var n int64
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "stamp_round_time_ticks_count") {
			continue
		}
		c, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return -1
		}
		n += c
	}
	return n
}
