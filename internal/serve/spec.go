// Package serve implements the stampserve run service: a long-running
// HTTP front end that accepts scenario specs (machine config ×
// experiment/app × fault plan), executes them deterministically on a
// bounded worker pool, streams per-run progress events (spans, barrier
// generations, checkpoint commits, fault firings, profile deltas) and
// aggregates Prometheus metrics across in-flight and completed runs.
// Its runner, Execute, is also how stampsim runs a scenario.
//
// Scenarios are content-addressed: a spec is normalized to canonical
// form and hashed, and a resubmission of an identical spec is served
// from the result cache byte-for-byte — possible only because every
// simulation is a pure function of its spec (virtual time, seeded
// workloads, deterministic scheduling).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/apps/airline"
	"repro/internal/apps/apsp"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stm"
)

// FaultSpec schedules core failures against an app scenario.
type FaultSpec struct {
	Failures []CoreFailureSpec `json:"failures"`
}

// CoreFailureSpec is one scheduled core failure.
type CoreFailureSpec struct {
	Core int      `json:"core"`
	At   sim.Time `json:"at"`
}

// CkptSpec enables barrier-consistent checkpointing (jacobi only).
type CkptSpec struct {
	Every int `json:"every"`
}

// Spec is a scenario: what to run and on what machine. The zero value
// of every optional field means "default"; Normalize fills defaults
// and clears fields irrelevant to the selected kind/app so that two
// semantically identical submissions canonicalize to the same bytes
// (and therefore the same scenario hash).
type Spec struct {
	// Kind is "app" or "experiment". Inferred when empty: "experiment"
	// if Experiment is set, else "app".
	Kind string `json:"kind,omitempty"`
	// Experiment is a reproduction-harness experiment ID (kind
	// "experiment"); see experiments.IDs().
	Experiment string `json:"experiment,omitempty"`
	// App is jacobi | apsp | bank | airline (kind "app").
	App string `json:"app,omitempty"`
	// Machine is niagara | generic | single.
	Machine string `json:"machine,omitempty"`
	// N is the problem size (equations / vertices / accounts / sectors).
	N int `json:"n,omitempty"`
	// Procs is the worker-process count (bank, airline).
	Procs int `json:"procs,omitempty"`
	// Iters fixes the jacobi iteration count (0 = to convergence).
	Iters int `json:"iters,omitempty"`
	// Seed seeds the workload generator.
	Seed int64 `json:"seed,omitempty"`
	// Mode is the apsp epoch mode: async | bulksync.
	Mode string `json:"mode,omitempty"`
	// Manager is the STM contention manager (bank, airline):
	// passive | aggressive | karma | timestamp.
	Manager string `json:"manager,omitempty"`
	// Policy is the airline booking policy: partial | strict.
	Policy string `json:"policy,omitempty"`
	// Fault schedules core failures (app scenarios only).
	Fault *FaultSpec `json:"fault,omitempty"`
	// Ckpt enables checkpointing (jacobi with Iters > 0 only).
	Ckpt *CkptSpec `json:"ckpt,omitempty"`
	// TimeoutSec bounds the run's host wall-clock time (app scenarios
	// only; 0 = unbounded). An overrunning simulation is torn down and
	// reported with status "timeout". Timed-out results depend on host
	// speed, so they are never entered into the scenario cache.
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// Upper bounds on an app scenario's size knobs. The server is
// long-lived and a run's memory and time grow with them (jacobi
// allocates an n×n system, apsp an n×n distance matrix), so one request
// must not be able to exhaust the host.
const (
	maxN     = 1024
	maxProcs = 1024
	maxIters = 10000
)

// knownApps lists the app scenarios; normalizeApp holds their defaults.
var knownApps = map[string]bool{"jacobi": true, "apsp": true, "bank": true, "airline": true}

// Normalize fills defaults, clears fields the selected scenario does
// not consume, and validates the result. The returned spec is
// canonical: Hash() of two Normalize outputs is equal iff the
// scenarios are semantically identical.
func (s Spec) Normalize() (Spec, error) {
	if s.Kind == "" {
		if s.Experiment != "" {
			s.Kind = "experiment"
		} else {
			s.Kind = "app"
		}
	}
	switch s.Kind {
	case "experiment":
		return s.normalizeExperiment()
	case "app":
		return s.normalizeApp()
	default:
		return Spec{}, fmt.Errorf("unknown kind %q (want \"app\" or \"experiment\")", s.Kind)
	}
}

func (s Spec) normalizeExperiment() (Spec, error) {
	if s.Experiment == "" {
		return Spec{}, fmt.Errorf("kind \"experiment\" requires an experiment id (one of %v)", experiments.IDs())
	}
	found := false
	for _, id := range experiments.IDs() {
		if id == s.Experiment {
			found = true
			break
		}
	}
	if !found {
		return Spec{}, fmt.Errorf("unknown experiment %q (known: %v)", s.Experiment, experiments.IDs())
	}
	// Experiments are fully self-describing; every app knob must be
	// unset so identical scenarios hash identically.
	out := Spec{Kind: "experiment", Experiment: s.Experiment}
	stray := s
	stray.Kind, stray.Experiment = "", ""
	if stray != (Spec{}) {
		return Spec{}, fmt.Errorf("experiment scenarios take no app parameters (got extra fields)")
	}
	return out, nil
}

func (s Spec) normalizeApp() (Spec, error) {
	if s.Experiment != "" {
		return Spec{}, fmt.Errorf("kind \"app\" conflicts with experiment %q", s.Experiment)
	}
	if s.App == "" {
		s.App = "jacobi"
	}
	if !knownApps[s.App] {
		return Spec{}, fmt.Errorf("unknown app %q (want jacobi | apsp | bank | airline)", s.App)
	}
	if s.Machine == "" {
		s.Machine = "niagara"
	}
	if _, err := machine.Preset(s.Machine); err != nil {
		return Spec{}, err
	}
	if s.N == 0 {
		s.N = 16
	}
	if s.N < 2 || s.N > maxN {
		return Spec{}, fmt.Errorf("n must be in [2, %d], got %d", maxN, s.N)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TimeoutSec < 0 {
		return Spec{}, fmt.Errorf("timeout_sec must be >= 0, got %d", s.TimeoutSec)
	}

	// Per-app knobs: default what the app consumes, reject what it
	// does not (a stray knob would change the hash of an otherwise
	// identical scenario, or silently do nothing).
	switch s.App {
	case "jacobi":
		if s.Iters < 0 || s.Iters > maxIters {
			return Spec{}, fmt.Errorf("iters must be in [0, %d] (0 = to convergence), got %d", maxIters, s.Iters)
		}
		if err := s.rejectUnused("jacobi", s.Procs != 0, "procs"); err != nil {
			return Spec{}, err
		}
		if err := s.rejectUnused("jacobi", s.Mode != "" || s.Manager != "" || s.Policy != "", "mode/manager/policy"); err != nil {
			return Spec{}, err
		}
		if s.Ckpt != nil {
			if s.Iters == 0 {
				return Spec{}, fmt.Errorf("checkpointing requires a fixed iteration count (iters > 0)")
			}
			ck := *s.Ckpt
			if ck.Every <= 0 {
				ck.Every = 2
			}
			s.Ckpt = &ck
		}
	case "apsp":
		if s.Mode == "" {
			s.Mode = "async"
		}
		if _, err := apsp.ModeByName(s.Mode); err != nil {
			return Spec{}, err
		}
		if err := s.rejectUnused("apsp", s.Procs != 0 || s.Iters != 0, "procs/iters"); err != nil {
			return Spec{}, err
		}
		if err := s.rejectUnused("apsp", s.Manager != "" || s.Policy != "" || s.Ckpt != nil, "manager/policy/ckpt"); err != nil {
			return Spec{}, err
		}
	case "bank", "airline":
		if s.Procs == 0 {
			s.Procs = 8
		}
		if s.Procs < 1 || s.Procs > maxProcs {
			return Spec{}, fmt.Errorf("procs must be in [1, %d], got %d", maxProcs, s.Procs)
		}
		if s.Manager == "" {
			s.Manager = "timestamp"
		}
		if _, err := stm.ManagerByName(s.Manager); err != nil {
			return Spec{}, err
		}
		if s.App == "airline" {
			if s.Policy == "" {
				s.Policy = "partial"
			}
			if _, err := airline.PolicyByName(s.Policy); err != nil {
				return Spec{}, err
			}
		} else if err := s.rejectUnused("bank", s.Policy != "", "policy"); err != nil {
			return Spec{}, err
		}
		if err := s.rejectUnused(s.App, s.Iters != 0 || s.Mode != "" || s.Ckpt != nil, "iters/mode/ckpt"); err != nil {
			return Spec{}, err
		}
	}

	if s.Fault != nil {
		if len(s.Fault.Failures) == 0 {
			s.Fault = nil
		} else {
			cfg, _ := machine.Preset(s.Machine)
			fs := append([]CoreFailureSpec(nil), s.Fault.Failures...)
			for _, f := range fs {
				if f.At < 0 {
					return Spec{}, fmt.Errorf("fault at %d is negative", f.At)
				}
				if f.Core < 0 || f.Core >= cfg.NumCores() {
					return Spec{}, fmt.Errorf("fault core %d outside machine %q (%d cores)", f.Core, s.Machine, cfg.NumCores())
				}
			}
			// Canonical order: by time, then core.
			sort.SliceStable(fs, func(i, j int) bool {
				if fs[i].At != fs[j].At {
					return fs[i].At < fs[j].At
				}
				return fs[i].Core < fs[j].Core
			})
			s.Fault = &FaultSpec{Failures: fs}
		}
	}
	return s, nil
}

func (s Spec) rejectUnused(app string, set bool, what string) error {
	if set {
		return fmt.Errorf("app %q does not take %s", app, what)
	}
	return nil
}

// Hash returns the scenario's content address: the hex sha256 of the
// canonical JSON encoding of the normalized spec. Call on a Normalize
// result; field order is fixed by the struct, omitted fields are
// canonically absent, and Normalize has already sorted the fault plan,
// so equal scenarios produce equal hashes.
func (s Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: spec marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Describe renders a short human label for run listings.
func (s Spec) Describe() string {
	if s.Kind == "experiment" {
		return "experiment " + s.Experiment
	}
	d := fmt.Sprintf("%s n=%d machine=%s", s.App, s.N, s.Machine)
	if s.Fault != nil {
		d += fmt.Sprintf(" faults=%d", len(s.Fault.Failures))
	}
	if s.Ckpt != nil {
		d += fmt.Sprintf(" ckpt=%d", s.Ckpt.Every)
	}
	return d
}
