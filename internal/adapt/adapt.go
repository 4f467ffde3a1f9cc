// Package adapt is the self-adaptive runtime controller: the closed
// loop that keeps a running STAMP computation on its §3.1 prediction
// when the machine shifts underneath it. At every barrier generation —
// the same consistency instant the checkpoint layer uses — the
// controller evaluates three live signals:
//
//   - fired core failures from a fault.Plan in fail-over mode: the
//     failure detector's advance warning that a core is about to die;
//   - the active per-core power cap from an energy.CapSchedule: a
//     time-varying envelope the placement must fit under;
//   - drift: the measured per-generation T diverging from the model's
//     prediction by more than a configured relative error.
//
// When a signal trips, the controller asks sched.Reallocate for an
// incremental re-placement (minimal moves, cluster-aware, away from
// down cores, under the active cap) and live-migrates exactly the
// members whose thread changed: each mover is charged the snapshot
// write plus the state transfer (ℓ_e + w·g_sh_e each), its image is
// extracted through the checkpoint machinery (ckpt.ExtractMember),
// its simulated process rebinds to the new thread (core.Ctx.Rebind)
// and the image is implanted back (ckpt.ImplantMember). Because the
// image round-trips every charge counter, carry residue and queued
// message, a migrated run with the move costs zeroed is bit-identical
// to an oracle static run on the final placement.
//
// When re-placement is infeasible — or disabled (NoMigrate), which is
// the static-placement baseline — the controller falls back to the
// DVFS response: each over-cap core is throttled to the multiplier
// the f³ power law allows (energy.ThrottleMult), and restored when
// the cap lifts.
package adapt

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config parameterizes a Controller.
type Config struct {
	// Job is the placed job: N member processes at PowerPerProc each,
	// with the distribution Reallocate preserves.
	Job sched.Job
	// Envelope is the static per-core power envelope the initial
	// placement was made under; re-placements use min(Envelope, active
	// cap). 0 means only the cap schedule constrains power.
	Envelope float64
	// Cap is the time-varying per-core power cap. The zero value is
	// uncapped.
	Cap energy.CapSchedule
	// Plan, when non-nil, supplies the fired-failure signal; arm it
	// with EnableFailover so threatened processes live long enough to
	// migrate.
	Plan *fault.Plan
	// Words is the migration payload size w: each mover is charged
	// 2·(ℓ_e + w·g_sh_e) — snapshot write plus state transfer.
	Words int
	// DriftThreshold trips the drift trigger when the measured
	// per-generation T differs from PredictRound by more than this
	// relative error. 0 disables the trigger.
	DriftThreshold float64
	// PredictRound is the §3.1 per-generation T prediction the drift
	// trigger compares against.
	PredictRound float64
	// NoMigrate restricts the controller to the DVFS response — the
	// static-placement baseline adaptive runs are compared against.
	NoMigrate bool
	// CostFree zeroes the migration charges. Only the oracle
	// equivalence runs use it: with costs zeroed, a migrated run must
	// be bit-identical to a static run on the final placement.
	CostFree bool
}

// Controller runs the adaptive loop. The zero value is not usable;
// construct with New. A nil *Controller is a valid no-op — pass it
// where an application takes an optional controller.
type Controller struct {
	cfg Config

	cur *genDecision

	lastGen int
	lastAt  sim.Time

	migrations int
	migCost    float64
	throttled  map[int]float64
	history    []string
}

// genDecision is one evaluated generation's outcome, computed by the
// first member to arrive and applied by each member to itself.
type genDecision struct {
	gen    int
	at     sim.Time
	count  int
	target core.Placement // nil: no migration this generation
	reason string         // "fault", "powercap" or "drift"
	cost   float64        // per-mover charge, already zeroed if CostFree
}

// New returns a controller for cfg.
func New(cfg Config) *Controller {
	if cfg.Words < 0 {
		panic("adapt: negative payload size")
	}
	return &Controller{cfg: cfg, throttled: map[int]float64{}}
}

// Sync is the adaptive loop's cooperative hook: every group member
// calls it at the top of each iteration, right after the barrier, with
// the running generation number and (a pointer to) its application
// state. Like ckpt.Commit it must be reached by all members at the
// same virtual instant and panics otherwise. The first arriver
// evaluates the trigger signals and decides the generation; each
// member then applies its own part — paying the move charges and
// migrating itself when the decision reassigned its thread. state may
// be nil for members carrying no application payload; when non-nil it
// must be a pointer, since a mover's image is implanted back into it.
func (a *Controller) Sync(ctx *core.Ctx, gen int, state any) {
	if a == nil || gen <= 0 {
		return
	}
	now := ctx.Now()
	g := ctx.Group()
	if a.cur != nil && a.cur.gen != gen {
		// A generation left incomplete (a member was killed between
		// the barrier and its sync): abandon it and start fresh.
		a.cur = nil
	}
	if a.cur == nil {
		a.decide(ctx, gen, now)
	}
	d := a.cur
	if d.at != now {
		panic(fmt.Sprintf("adapt: sync of generation %d at t=%d is not barrier-consistent (first member synced at t=%d)", gen, now, d.at))
	}
	d.count++
	if d.count == g.Size() {
		a.cur = nil
	}
	if d.target == nil {
		return
	}
	th := d.target[ctx.Index()]
	if th == ctx.Thread() {
		return
	}
	// The move: pay first (so the snapshot carries the charge), then
	// extract → rebind → implant.
	ctx.HoldCost(d.cost)
	ms, err := ckpt.ExtractMember(ctx, state)
	if err != nil {
		panic(fmt.Sprintf("adapt: %v", err))
	}
	ctx.Rebind(th)
	if err := ckpt.ImplantMember(ctx, ms, state); err != nil {
		panic(fmt.Sprintf("adapt: %v", err))
	}
	a.migrations++
	a.migCost += d.cost
	obs.RecordMigration(ctx.System().Obs.Registry(), g.Name(), d.reason, d.cost)
}

// decide evaluates the trigger signals at the consistency instant and
// records the generation's decision, on the first member sync of a
// generation.
func (a *Controller) decide(ctx *core.Ctx, gen int, now sim.Time) {
	sys := ctx.System()
	g := ctx.Group()
	cfg := sys.M.Cfg
	reg := sys.Obs.Registry()
	d := &genDecision{gen: gen, at: now}
	a.cur = d

	cur := append(core.Placement(nil), g.Placement()...)

	// Signal 1: a fired failure threatening the placement.
	var down map[int]bool
	if a.cfg.Plan != nil {
		down = a.cfg.Plan.Down()
	}
	faultHit := false
	//stamplint:allow chargeflow: controller decision plane — the model charges the migration itself (2(l_e+w*g_sh_e)), not the decision bookkeeping
	for _, th := range cur {
		if down[cfg.CoreOf(th)] {
			faultHit = true
			break
		}
	}

	// Signal 2: the active power cap versus the placement's per-core
	// power at full clock.
	cap := a.cfg.Cap.CapAt(now)
	perCore := make([]float64, cfg.NumCores())
	//stamplint:allow chargeflow: controller decision plane — the model charges the migration itself (2(l_e+w*g_sh_e)), not the decision bookkeeping
	for _, th := range cur {
		perCore[cfg.CoreOf(th)] += a.cfg.Job.PowerPerProc
	}
	capHit := false
	if cap > 0 {
		for _, p := range perCore {
			if p > cap {
				capHit = true
				break
			}
		}
	}

	// Signal 3: measured per-generation T drifting off the prediction.
	driftHit := false
	if a.cfg.DriftThreshold > 0 && a.cfg.PredictRound > 0 && a.lastGen > 0 && gen > a.lastGen {
		measured := float64(now-a.lastAt) / float64(gen-a.lastGen)
		rel := math.Abs(measured-a.cfg.PredictRound) / a.cfg.PredictRound
		driftHit = rel > a.cfg.DriftThreshold
		obs.RecordDriftTrigger(reg, g.Name(), a.cfg.PredictRound, measured, driftHit)
	}
	a.lastGen, a.lastAt = gen, now

	if faultHit || capHit || driftHit {
		reason := "drift"
		switch {
		case faultHit:
			reason = "fault"
		case capHit:
			reason = "powercap"
		}
		env := a.cfg.Envelope
		if cap > 0 && (env == 0 || cap < env) {
			env = cap
		}
		if !a.cfg.NoMigrate {
			dec := sched.Reallocate(cfg, a.cfg.Job, env, down, cur)
			if dec.Feasible && dec.Moved > 0 {
				costs := cfg.Costs
				d.target = dec.Placement
				d.reason = reason
				if !a.cfg.CostFree {
					d.cost = 2 * (float64(costs.EllE) + float64(a.cfg.Words)*costs.GShE)
				}
				a.log("gen %d t=%d: %s → migrate %d/%d (%.4g ticks each)",
					gen, now, reason, dec.Moved, a.cfg.Job.N, d.cost)
				// Re-place quenches the power signal too: reconcile
				// throttles against the post-move placement.
				//stamplint:allow chargeflow: controller decision plane — the model charges the migration itself, not the decision bookkeeping
				for i := range perCore {
					perCore[i] = 0
				}
				//stamplint:allow chargeflow: controller decision plane — the model charges the migration itself, not the decision bookkeeping
				for _, th := range d.target {
					perCore[cfg.CoreOf(th)] += a.cfg.Job.PowerPerProc
				}
			} else if !dec.Feasible {
				a.log("gen %d t=%d: %s → re-placement infeasible (%s)", gen, now, reason, dec.Reason)
			}
		}
	}

	// DVFS reconciliation: throttle over-cap cores to what the f³ law
	// allows, and restore cores the cap no longer binds. Runs whenever
	// the cap is live or a throttle is still applied, so a rising cap
	// lifts old throttles even on otherwise quiet generations.
	if cap > 0 || len(a.throttled) > 0 {
		//stamplint:allow chargeflow: DVFS actuation is a frequency change, free by the model; its cost shows up as the slowed compute it causes
		for c := 0; c < cfg.NumCores(); c++ {
			want := 1.0
			if cap > 0 && perCore[c] > cap {
				want = energy.ThrottleMult(perCore[c], cap)
			}
			prev, ok := a.throttled[c]
			if !ok {
				prev = 1
			}
			if want == prev {
				continue
			}
			sys.M.SetCoreMult(c, want)
			obs.RecordThrottle(reg, c, want)
			if want == 1 {
				delete(a.throttled, c)
				a.log("gen %d t=%d: core %d restored to full clock", gen, now, c)
			} else {
				a.throttled[c] = want
				a.log("gen %d t=%d: powercap → throttle core %d to ×%.4g", gen, now, c, want)
			}
		}
	}
}

func (a *Controller) log(format string, args ...any) {
	a.history = append(a.history, fmt.Sprintf(format, args...))
}

// Migrations returns how many member moves the controller performed.
func (a *Controller) Migrations() int {
	if a == nil {
		return 0
	}
	return a.migrations
}

// MigrationCost returns the total virtual-time cost charged for moves.
func (a *Controller) MigrationCost() float64 {
	if a == nil {
		return 0
	}
	return a.migCost
}

// History returns the controller's decision log, in decision order:
// deterministic virtual-model quantities only, so experiment output
// built from it stays golden-stable.
func (a *Controller) History() []string {
	if a == nil {
		return nil
	}
	return a.history
}

// ThrottleOf returns the frequency multiplier currently applied to a
// core (1 when unthrottled).
func (a *Controller) ThrottleOf(core int) float64 {
	if a == nil {
		return 1
	}
	if m, ok := a.throttled[core]; ok {
		return m
	}
	return 1
}
