package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/apps/jacobi"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("recovery", "checkpoint/restore: interval × failure-time sweep; recovered work vs checkpoint overhead; crash-recovery modes", runRecovery)
}

// runRecovery (E15) measures the checkpoint/restore subsystem against
// the §3.1 time accounting, in three parts:
//
// (a) overhead — a checkpointed run must cost EXACTLY n_ckpts·c_ckpt
// more virtual time than a plain run, where c_ckpt = ℓ_e + w·g_sh_e is
// one inter-processor write of the w-word member payload, and must not
// change the computed iterate by a single bit or cost any energy (the
// charge parks; it does not execute operations).
//
// (b) interval × failure-time sweep — the run is killed at fixed
// fractions of its event budget, restored from the latest on-disk
// checkpoint, and replayed. The restored run must land on the clean
// run's final virtual time, energy and iterate byte-for-byte. The total
// virtual time spent is T_crash + (T_clean − T_snap): the §3.1 sum of
// the lost partial run plus the replayed suffix, with T_snap the work
// the checkpoint recovered. A crash before the first checkpoint has
// nothing to restore and restarts from scratch (total T_crash +
// T_clean).
//
// (c) crash-recovery modes — core-failure plans pick between the three
// recovery modes: partial loss prefers warm-start re-placement (live
// data is fresher than any checkpoint, E14's path), total loss restores
// the checkpoint when one exists and restarts otherwise. A failure the
// original run had armed but not yet suffered is replayed from the WAL
// and strikes the restored run at the same virtual instant, forcing a
// second recovery — the double-crash cell.
func runRecovery() Result {
	t := newTable()
	var checks []Check

	const (
		nb    = 8
		iters = 12
		seed  = 909
	)
	cfg := machine.Niagara()
	cc := cfg.Costs
	perCkpt := sim.Time(float64(cc.EllE) + float64(jacobi.CkptWords)*cc.GShE)

	type recRun struct {
		T          sim.Time
		E          float64
		X          []float64
		Dispatched int64
		Err        error
	}
	runOne := func(ck *ckpt.Controller, maxEvents int64, arm func(*core.System, *ckpt.Controller) *fault.Plan) (recRun, *fault.Plan) {
		sys := core.NewSystem(cfg)
		sys.K.MaxEvents = maxEvents
		var pl *fault.Plan
		if arm != nil {
			pl = arm(sys, ck)
		}
		res, err := jacobi.Run(sys, jacobi.Config{System: workload.NewLinearSystem(nb, seed), Iters: iters, Ckpt: ck})
		r := recRun{T: sys.K.Now(), Dispatched: sys.K.Dispatched(), Err: err}
		if err == nil {
			r.E = res.Report().E()
			r.X = res.X
		}
		ck.Close()
		return r, pl
	}
	bitsEqual := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	sameAs := func(clean, got recRun) bool {
		return got.Err == nil && got.T == clean.T &&
			math.Float64bits(got.E) == math.Float64bits(clean.E) && bitsEqual(got.X, clean.X)
	}
	// Every cell below checkpoints into its own temp dir and removes it
	// on return.
	tmpDir := func() string {
		d, err := os.MkdirTemp("", "stamp-recovery-*")
		if err != nil {
			panic(err)
		}
		return d
	}
	newCtl := func(dir string, every int) *ckpt.Controller {
		ck, err := ckpt.New(dir, every)
		if err != nil {
			panic(err)
		}
		return ck
	}

	// --- (a) checkpoint overhead against the §3.1 accounting ----------
	// Cell 0 is the plain run, cell k checkpoints every intervals[k-1]
	// generations. Parts (b) and (c) read these clean runs.
	intervals := []int{2, 3, 6}
	runs := make([]recRun, 1+len(intervals))
	sweep(runtime.GOMAXPROCS(0), len(runs), func(i int) {
		var ck *ckpt.Controller
		if i > 0 {
			dir := tmpDir()
			defer os.RemoveAll(dir)
			ck = newCtl(dir, intervals[i-1])
		}
		r, _ := runOne(ck, 0, nil)
		if r.Err != nil {
			panic(r.Err)
		}
		runs[i] = r
	})
	plain := runs[0]
	nCkpts := func(every int) sim.Time {
		var n sim.Time
		for g := 1; g < iters; g++ {
			if g%every == 0 {
				n++
			}
		}
		return n
	}
	clean := map[int]recRun{}
	t.row("interval", "ckpts", "charge", "T", "T-Tplain", "x exact", "E exact")
	t.row("plain", 0, 0, plain.T, 0, true, true)
	overheadBounded, perturbFree := true, true
	for k, every := range intervals {
		r := runs[k+1]
		clean[every] = r
		n := nCkpts(every)
		xOK := bitsEqual(r.X, plain.X)
		eOK := math.Float64bits(r.E) == math.Float64bits(plain.E)
		// The charge parks every member for c_ckpt ticks after the barrier
		// trip, but part of each park overlaps the wait the member would
		// have spent blocked in RecvN for the slowest peer update anyway —
		// so the observed overhead is bounded by n·c_ckpt, reaching it
		// only when the plain schedule had no arrival slack to absorb.
		overheadBounded = overheadBounded && r.T > plain.T && r.T <= plain.T+n*perCkpt
		perturbFree = perturbFree && xOK && eOK
		t.row(every, n, n*perCkpt, r.T, r.T-plain.T, xOK, eOK)
	}
	checks = append(checks, check("0 < T(every) - T(plain) <= n_ckpts·(ℓ_e + w·g_sh_e)", overheadBounded,
		"c_ckpt=%d; barrier arrival slack absorbs the rest", perCkpt))
	checks = append(checks, check("checkpointing perturbs neither iterate nor energy", perturbFree, ""))

	// --- (b) interval × failure-time sweep ----------------------------
	type crash struct {
		every    int
		num, den int64
	}
	var crashes []crash
	for _, every := range intervals {
		for _, f := range []struct{ num, den int64 }{{3, 10}, {11, 20}, {4, 5}} {
			crashes = append(crashes, crash{every, f.num, f.den})
		}
	}
	type crashOut struct {
		kill              int64
		crashed, restored recRun
		mode              fault.RecoveryMode
		snapGen           int
		snapT             sim.Time
	}
	crashRun := func(c crash) crashOut {
		o := crashOut{kill: clean[c.every].Dispatched * c.num / c.den, mode: fault.RecoverRestoreCkpt}
		dir := tmpDir()
		defer os.RemoveAll(dir)
		o.crashed, _ = runOne(newCtl(dir, c.every), o.kill, nil)
		var lim *sim.ErrEventLimit
		if !errors.As(o.crashed.Err, &lim) {
			panic(fmt.Sprintf("recovery: kill at %d events did not crash: %v", o.kill, o.crashed.Err))
		}
		ck, err := ckpt.Resume(dir, c.every)
		if errors.Is(err, ckpt.ErrNoCheckpoint) {
			o.mode = fault.RecoverRestart
			ck = newCtl(dir, c.every)
		} else if err != nil {
			panic(err)
		} else {
			o.snapGen = ck.ResumedGeneration()
			snap, _, lerr := ckpt.Latest(dir)
			if lerr != nil {
				panic(lerr)
			}
			o.snapT = snap.VTime
		}
		o.restored, _ = runOne(ck, 0, nil)
		return o
	}

	// --- (c) crash-recovery modes under core failures -----------------
	allCores := func(at sim.Time) []fault.CoreFailure {
		evs := make([]fault.CoreFailure, 0, cfg.NumCores())
		for c := 0; c < cfg.NumCores(); c++ {
			evs = append(evs, fault.CoreFailure{At: at, Core: c})
		}
		return evs
	}
	armVia := func(evs ...fault.CoreFailure) func(*core.System, *ckpt.Controller) *fault.Plan {
		return func(sys *core.System, ck *ckpt.Controller) *fault.Plan {
			pl, err := ck.ArmCoreFailures(sys, evs...)
			if err != nil {
				panic(err)
			}
			return pl
		}
	}
	snapshotAvailable := func(dir string) bool {
		_, _, err := ckpt.Latest(dir)
		return err == nil
	}
	type scenarioOut struct {
		row   []any
		check Check
	}
	scenarios := []func() scenarioOut{
		// Too-early total loss: every core fails before the first
		// checkpoint generation could commit — nothing to restore, mode
		// is restart.
		func() scenarioOut {
			every := 6
			failAt := clean[every].T / 4
			dir := tmpDir()
			defer os.RemoveAll(dir)
			crashed, pl := runOne(newCtl(dir, every), 0, armVia(allCores(failAt)...))
			mode := pl.Recovery(nb, snapshotAvailable(dir))
			// With every member dead the kernel drains to a clean finish;
			// the plan alone carries the news. Restart = a fresh run from
			// scratch.
			restarted, _ := runOne(newCtl(dir, every), 0, nil)
			exact := crashed.Err == nil && sameAs(clean[every], restarted)
			return scenarioOut{
				[]any{"too-early total loss", every, failAt, len(pl.Killed()), mode, 0, restarted.T, exact},
				check("total loss before the first checkpoint restarts",
					mode == fault.RecoverRestart && len(pl.Killed()) == nb && exact, ""),
			}
		},
		// Mid-run total loss: a checkpoint exists, mode is restore-ckpt,
		// and the restored replay lands on the clean run exactly. The
		// fired failures are WAL history, not pending: none replay.
		func() scenarioOut {
			every := 2
			failAt := 3 * clean[every].T / 5
			dir := tmpDir()
			defer os.RemoveAll(dir)
			crashed, pl := runOne(newCtl(dir, every), 0, armVia(allCores(failAt)...))
			mode := pl.Recovery(nb, snapshotAvailable(dir))
			ck, err := ckpt.Resume(dir, every)
			if err != nil {
				panic(err)
			}
			restored, _ := runOne(ck, 0, nil)
			exact := crashed.Err == nil && sameAs(clean[every], restored)
			return scenarioOut{
				[]any{"mid-run total loss", every, failAt, len(pl.Killed()), mode, len(ck.ReplayedFailures()), restored.T, exact},
				check("total loss with a checkpoint restores and replays exactly",
					mode == fault.RecoverRestoreCkpt && len(pl.Killed()) == nb &&
						len(ck.ReplayedFailures()) == 0 && exact, ""),
			}
		},
		// Partial loss: survivors exist, so warm-start re-placement wins
		// even though a checkpoint is on disk — live data is fresher. (E14
		// runs that re-placement end to end; here the decision is what's
		// under test.) The disruption signal is the survivors' barrier
		// deadlock.
		func() scenarioOut {
			every := 2
			failAt := 3 * clean[every].T / 5
			dir := tmpDir()
			defer os.RemoveAll(dir)
			crashed, pl := runOne(newCtl(dir, every), 0, armVia(fault.CoreFailure{At: failAt, Core: 0}))
			mode := pl.Recovery(nb, snapshotAvailable(dir))
			var dl *sim.ErrDeadlock
			signal := errors.As(crashed.Err, &dl)
			return scenarioOut{
				[]any{"partial loss", every, failAt, len(pl.Killed()), mode, 0, "-", signal},
				check("partial loss prefers warm-start over its checkpoint",
					mode == fault.RecoverWarmStart && signal && len(pl.Killed()) > 0 && len(pl.Killed()) < nb, ""),
			}
		},
		// Double crash: the run arms a late total failure, then dies early
		// by budget. The WAL replays the still-pending failure into the
		// restored run, which suffers it at the original instant and needs
		// a second restore — from a later checkpoint — to finish.
		// Nondeterminism the first run was committed to survives recovery.
		func() scenarioOut {
			every := 2
			failAt := 4 * clean[every].T / 5
			kill := clean[every].Dispatched * 9 / 20
			dir := tmpDir()
			defer os.RemoveAll(dir)
			crashed, _ := runOne(newCtl(dir, every), kill, armVia(allCores(failAt)...))
			var lim *sim.ErrEventLimit
			if !errors.As(crashed.Err, &lim) {
				panic(fmt.Sprintf("recovery: double-crash first run: %v", crashed.Err))
			}
			ck2, err := ckpt.Resume(dir, every)
			if err != nil {
				panic(err)
			}
			gen1 := ck2.ResumedGeneration()
			second, _ := runOne(ck2, 0, nil)
			// The replay happens inside the run (RestoreSystem), so the
			// re-armed set is read afterwards.
			replayed := len(ck2.ReplayedFailures())
			pl2 := ck2.ReplayedPlan()
			mode2 := pl2.Recovery(nb, snapshotAvailable(dir))
			ck3, err := ckpt.Resume(dir, every)
			if err != nil {
				panic(err)
			}
			gen3 := ck3.ResumedGeneration()
			final, _ := runOne(ck3, 0, nil)
			exact := second.Err == nil && sameAs(clean[every], final)
			return scenarioOut{
				[]any{"double crash (WAL)", every, failAt, len(pl2.Killed()), mode2, replayed, final.T, exact},
				check("a WAL-replayed failure strikes the restored run and a later checkpoint recovers it",
					replayed == nb && len(pl2.Killed()) == nb && mode2 == fault.RecoverRestoreCkpt &&
						gen3 > gen1 && exact, "resume gen %d → %d", gen1, gen3),
			}
		},
	}

	// Parts (b) and (c) only read the clean runs, so they share one sweep.
	crashOuts := make([]crashOut, len(crashes))
	scenarioOuts := make([]scenarioOut, len(scenarios))
	sweep(runtime.GOMAXPROCS(0), len(crashes)+len(scenarios), func(i int) {
		if i < len(crashes) {
			crashOuts[i] = crashRun(crashes[i])
		} else {
			scenarioOuts[i-len(crashes)] = scenarios[i-len(crashes)]()
		}
	})

	t.row("")
	t.row("interval", "kill@ev", "crashT", "mode", "snapgen", "snapT", "lostT", "finalT", "totalT", "exact")
	restoresExact, restartSeen, lossBounded, restoreWins := true, false, true, true
	for i, c := range crashes {
		o := crashOuts[i]
		exact := sameAs(clean[c.every], o.restored)
		restoresExact = restoresExact && exact
		lost := o.crashed.T - o.snapT
		total := o.crashed.T + o.restored.T - o.snapT
		sg := "-"
		if o.mode == fault.RecoverRestoreCkpt {
			sg = fmt.Sprint(o.snapGen)
			// The §3.1 payoff: lost work is bounded by one checkpoint
			// period (`every` iterations plus their charges), and the
			// restore total always beats the restart total by the
			// recovered prefix T_snap > 0.
			lossBounded = lossBounded && lost <= sim.Time(c.every)*plain.T/sim.Time(iters)+sim.Time(c.every)*perCkpt
			restoreWins = restoreWins && o.snapT > 0 && total < o.crashed.T+o.restored.T
		} else {
			restartSeen = true
		}
		t.row(c.every, o.kill, o.crashed.T, o.mode, sg, o.snapT, lost, o.restored.T, total, exact)
	}
	checks = append(checks, check("every restored run reproduces the clean run byte-for-byte", restoresExact, ""))
	checks = append(checks, check("a crash before the first checkpoint restarts from scratch", restartSeen, ""))
	checks = append(checks, check("lost work is bounded by one checkpoint period", lossBounded, ""))
	checks = append(checks, check("restore always beats restart by the recovered prefix", restoreWins, ""))

	t.row("")
	t.row("scenario", "interval", "failAt", "killed", "mode", "replayed", "finalT", "exact")
	for _, o := range scenarioOuts {
		t.row(o.row...)
		checks = append(checks, o.check)
	}

	return Result{ID: "recovery", Title: Title("recovery"), Table: t.String(), Checks: checks}
}
