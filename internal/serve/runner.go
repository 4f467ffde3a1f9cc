package serve

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/airline"
	"repro/internal/apps/apsp"
	"repro/internal/apps/bank"
	"repro/internal/apps/jacobi"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stm"
	"repro/internal/workload"
)

// ModelMetrics are the four §2.1 group metrics reported per run.
type ModelMetrics struct {
	T   sim.Time `json:"t_ticks"`
	E   float64  `json:"energy"`
	P   float64  `json:"power"`
	EDP float64  `json:"edp"`
}

// DriftRow is one model-vs-measurement drift gauge.
type DriftRow struct {
	App       string  `json:"app"`
	Metric    string  `json:"metric"`
	Predicted float64 `json:"predicted"`
	Measured  float64 `json:"measured"`
	RelErr    float64 `json:"rel_err"`
}

// EventTotals summarizes a run's event stream.
type EventTotals struct {
	Total              int   `json:"total"`
	Spans              int   `json:"spans"`
	BarrierGenerations int64 `json:"barrier_generations"`
	CkptCommits        int   `json:"ckpt_commits"`
	FaultFirings       int   `json:"fault_firings"`
}

// count folds one logged event into the totals. Only the simulation's
// own kinds count, not the server's run lifecycle events, so the
// totals are a pure function of the scenario.
func (t *EventTotals) count(ev *obs.Event) {
	switch ev.Kind {
	case evRun:
		return
	case obs.EvSpanOpen:
		t.Spans++
	case obs.EvBarrier:
		t.BarrierGenerations = max(t.BarrierGenerations, ev.Gen)
	case obs.EvCkpt:
		t.CkptCommits++
	case obs.EvFault:
		t.FaultFirings++
	}
	t.Total++
}

// CheckRow is one experiment check rendered for the result JSON.
type CheckRow struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	Note string `json:"note,omitempty"`
}

// Result is the machine-readable outcome of a scenario run. Every
// field is a pure function of the spec, so its JSON encoding is the
// byte-identical payload the scenario cache serves on resubmission.
type Result struct {
	Spec    Spec             `json:"spec"`
	Hash    string           `json:"hash"`
	Status  string           `json:"status"` // "done" | "failed" | "timeout"
	Error   string           `json:"error,omitempty"`
	Metrics *ModelMetrics    `json:"metrics,omitempty"`
	Drift   []DriftRow       `json:"drift,omitempty"`
	Profile map[string]int64 `json:"profile,omitempty"`
	Events  EventTotals      `json:"events"`

	// App extras.
	Iters         int            `json:"iters,omitempty"`          // jacobi iterations run
	Residual      float64        `json:"residual,omitempty"`       // jacobi final residual
	Epochs        int            `json:"epochs,omitempty"`         // apsp epochs
	TotalRounds   int            `json:"total_rounds,omitempty"`   // apsp update rounds, summed over processes
	Correct       *bool          `json:"correct,omitempty"`        // apsp vs Floyd–Warshall
	Succeeded     int            `json:"succeeded,omitempty"`      // bank transfers committed
	Declined      int            `json:"declined,omitempty"`       // bank transfers declined for funds
	AbortRate     float64        `json:"abort_rate,omitempty"`     // bank STM aborts over attempts
	Throughput    float64        `json:"throughput,omitempty"`     // bank transfers per 1000 ticks
	Outcomes      map[string]int `json:"outcomes,omitempty"`       // airline reservations by verdict name
	LegsCommitted int64          `json:"legs_committed,omitempty"` // airline committed leg transactions
	SuccessRate   float64        `json:"success_rate,omitempty"`   // airline complete itineraries over attempts
	Faults        []string       `json:"faults_killed,omitempty"`

	// Experiment extras.
	Checks []CheckRow `json:"checks,omitempty"`
	Passed *bool      `json:"passed,omitempty"`
	Table  string     `json:"table,omitempty"` // also an app group's per-process cost report
}

// Execute runs a normalized spec to completion; stampserve's workers
// and stampsim both run scenarios through it. The run fills the sinks
// of ob that are set (drift gauges and collected metrics, spans,
// profile). ck is the caller's checkpoint controller for a spec with
// Ckpt set; with nil, the run checkpoints into a temporary directory.
// Kernel errors (fault-induced deadlocks) and panics become a "failed"
// Result, which is itself deterministic and cacheable.
func Execute(spec Spec, ob *obs.Observer, ck *ckpt.Controller) (res Result) {
	res = Result{Spec: spec, Hash: spec.Hash(), Status: "done"}
	defer func() {
		if r := recover(); r != nil {
			res.Status = "failed"
			res.Error = fmt.Sprintf("panic: %v", r)
		}
	}()
	if spec.Kind == "experiment" {
		runExperiment(spec, &res)
	} else {
		runApp(spec, ob, ck, &res)
	}
	return res
}

// runExperiment executes a reproduction-harness experiment. These
// build their own Systems internally, so they report checks and the
// rendered table rather than a live event stream.
func runExperiment(spec Spec, res *Result) {
	r, err := experiments.Run(spec.Experiment)
	if err != nil {
		res.Status = "failed"
		res.Error = err.Error()
		return
	}
	for _, c := range r.Checks {
		res.Checks = append(res.Checks, CheckRow{Name: c.Name, Pass: c.Pass, Note: c.Note})
	}
	passed := r.Passed()
	res.Passed = &passed
	res.Table = r.Table
}

// runApp executes an app scenario with ob attached.
func runApp(spec Spec, ob *obs.Observer, ck *ckpt.Controller, res *Result) {
	cfg, _ := machine.Preset(spec.Machine) // Normalize has checked it
	opts := []core.Option{core.WithObs(ob)}
	if spec.Manager != "" { // only the STM apps name one; Normalize has checked it
		mgr, _ := stm.ManagerByName(spec.Manager)
		opts = append(opts, core.WithContentionManager(mgr))
	}
	sys := core.NewSystem(cfg, opts...)

	// The wall-clock deadline: a host timer interrupts the kernel, which
	// tears the simulation down like any error; setFailed classifies the
	// resulting *sim.ErrInterrupted as status "timeout".
	if spec.TimeoutSec > 0 {
		timer := time.AfterFunc(time.Duration(spec.TimeoutSec)*time.Second, func() {
			sys.K.Interrupt(fmt.Sprintf("wall-clock deadline of %ds exceeded", spec.TimeoutSec))
		})
		defer timer.Stop()
	}

	var plan *fault.Plan
	if spec.Fault != nil {
		evs := make([]fault.CoreFailure, 0, len(spec.Fault.Failures))
		for _, f := range spec.Fault.Failures {
			evs = append(evs, fault.CoreFailure{At: f.At, Core: f.Core})
		}
		plan = fault.ArmCoreFailures(sys, evs...)
	}

	var grp *core.Group
	switch spec.App {
	case "jacobi":
		grp = runJacobi(spec, sys, ob, ck, res)
	case "apsp":
		grp = runAPSP(spec, sys, ob, res)
	case "bank":
		wl := workload.NewBank(spec.N, 8*spec.Procs, 1000, 0.5, spec.Seed)
		r, err := bank.Run(sys, wl, spec.Procs, nil)
		if err != nil {
			setFailed(res, err)
			break
		}
		grp = r.Group
		res.Succeeded, res.Declined = r.Succeeded, r.Declined
		res.AbortRate, res.Throughput = r.TM.AbortRate(), r.Throughput()
	case "airline":
		wl := workload.NewAirline(spec.N, 4, 10*spec.Procs, spec.Seed)
		pol, _ := airline.PolicyByName(spec.Policy) // Normalize has checked it
		r, err := airline.Run(sys, wl, spec.Procs, pol)
		if err != nil {
			setFailed(res, err)
			break
		}
		grp = r.Group
		res.Outcomes = make(map[string]int, len(r.Outcomes))
		for v, n := range r.Outcomes {
			res.Outcomes[v.String()] = n
		}
		res.LegsCommitted, res.SuccessRate = r.LegsCommitted, r.SuccessRate()
	}

	if plan != nil {
		res.Faults = plan.Killed()
	}
	if grp != nil {
		rep := grp.Report()
		en := rep.Energy()
		res.Metrics = &ModelMetrics{T: rep.T(), E: en.E, P: en.Power(), EDP: en.EDP()}
		res.Table = rep.Table()
	}
	res.Profile = profileMap(ob.Profiler())
	sys.CollectMetrics()
}

// recordDrift publishes one predicted-vs-measured pair both into the
// per-run registry (scrapeable) and the result JSON (cacheable).
func recordDrift(ob *obs.Observer, res *Result, app, metric string, predicted, measured float64) {
	d := obs.RecordDrift(ob.Registry(), app, metric, predicted, measured)
	res.Drift = append(res.Drift, DriftRow{
		App: app, Metric: metric,
		Predicted: predicted, Measured: measured, RelErr: d.RelErr(),
	})
}

func setFailed(res *Result, err error) {
	res.Status = "failed"
	var ie *sim.ErrInterrupted
	if errors.As(err, &ie) {
		res.Status = "timeout"
	}
	res.Error = err.Error()
}

func runJacobi(spec Spec, sys *core.System, ob *obs.Observer, ck *ckpt.Controller, res *Result) *core.Group {
	ls := workload.NewLinearSystem(spec.N, spec.Seed)
	if spec.Ckpt != nil && ck == nil {
		dir, err := os.MkdirTemp("", "stampserve-ckpt-*")
		if err != nil {
			setFailed(res, err)
			return nil
		}
		defer os.RemoveAll(dir)
		ck, err = ckpt.New(dir, spec.Ckpt.Every)
		if err != nil {
			setFailed(res, err)
			return nil
		}
		defer ck.Close()
	}
	r, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: spec.Iters, Tol: 1e-9, Ckpt: ck})
	if err != nil {
		setFailed(res, err)
		return nil
	}
	res.Iters = r.Iters
	res.Residual = ls.Residual(r.X)
	model := jacobi.Model(sys, r.Group, spec.N)
	mt, me := jacobi.MeasuredRound(r.Group, 1)
	recordDrift(ob, res, "jacobi", "T_sround", model.TSRound(), float64(mt))
	recordDrift(ob, res, "jacobi", "E_sround", model.ESRound(), me)
	if mt > 0 && model.TSRound() > 0 {
		recordDrift(ob, res, "jacobi", "P_sround",
			model.ESRound()/model.TSRound(), me/float64(mt))
	}
	return r.Group
}

func runAPSP(spec Spec, sys *core.System, ob *obs.Observer, res *Result) *core.Group {
	g := workload.NewRandomGraph(spec.N, 0.25, 40, spec.Seed)
	m, _ := apsp.ModeByName(spec.Mode) // Normalize has checked it
	r, err := apsp.Run(sys, apsp.Config{Graph: g, Mode: m})
	if err != nil {
		setFailed(res, err)
		return nil
	}
	res.Epochs, res.TotalRounds = r.Epochs, r.TotalRounds()
	ok := apsp.Equal(r.Dist, apsp.FloydWarshall(g))
	res.Correct = &ok

	// Round-time drift against the cost model with the measured κ
	// (queue wait) substituted, as in the §4 analysis.
	if model, mt, me, ok := apsp.Model(r.Group); ok {
		recordDrift(ob, res, "apsp", "T_sround", model.TSRoundPaper(), mt)
		recordDrift(ob, res, "apsp", "E_sround_upper", model.ESRoundUpper(), me)
	}
	return r.Group
}

// profileMap renders the fleet-wide category totals for the result
// JSON, in a fixed key set (maps encode sorted in encoding/json, so
// the bytes stay canonical).
func profileMap(pf *obs.Profiler) map[string]int64 {
	if !pf.Enabled() {
		return nil
	}
	tot := pf.Totals()
	out := make(map[string]int64, len(tot))
	for c := obs.Category(0); c < obs.NumCategories; c++ {
		out[c.String()] = int64(tot[c])
	}
	return out
}
