package experiments

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("faults", "fault injection: reliable Jacobi under message loss; core failure → re-place on survivors", runFaults)
}

// runFaults exercises the deterministic fault layer end to end, in two
// sweeps:
//
// (a) message faults — synchronous Jacobi rewritten over the
// stop-and-wait reliable protocol (fault.Reliable) on a lossy network,
// swept across loss rate × retransmission timeout. Every cell must
// compute the bit-exact sequential iterate: faults may only cost time,
// never answers. The recovery work is visible in the protocol counters
// and in the profiler's fault category.
//
// (b) core failures — a Jacobi run placed under the paper's power
// envelope loses processors mid-run. The killed processes' peers block
// at the next barrier, the kernel's deadlock detector turns that into
// a clean deterministic error, and the controller re-places the job on
// the surviving cores (sched.AllocateExcluding, still under the
// envelope) and warm-starts from the last per-round snapshot — the §5
// closed loop of E11, with hard faults as the trigger instead of a
// power violation. When too few cores survive, the allocator must say
// so instead of violating the envelope.
func runFaults() Result {
	t := newTable()
	var checks []Check

	// --- (a) loss-rate × timeout sweep over the reliable protocol ----
	const (
		n        = 4
		iters    = 6
		maxTries = 12
	)
	type cell struct {
		label   string
		fc      fault.Config
		timeout sim.Time
	}
	cells := []cell{
		{"clean", fault.Config{Seed: 42}, 40},
		{"clean", fault.Config{Seed: 42}, 120},
		{"drop 10%", fault.Config{Seed: 42, DropRate: 0.10}, 40},
		{"drop 10%", fault.Config{Seed: 42, DropRate: 0.10}, 120},
		{"drop 25%", fault.Config{Seed: 42, DropRate: 0.25}, 40},
		{"drop 25%", fault.Config{Seed: 42, DropRate: 0.25}, 120},
		{"mixed", fault.Config{Seed: 42, DropRate: 0.10, DupRate: 0.10, DelayRate: 0.20, DelayTicks: 25}, 120},
	}

	type rowStats struct {
		cell
		T          sim.Time
		inj        *fault.Injector
		agg        fault.ReliableStats
		faultTicks sim.Time
		exact      bool
	}
	rows := make([]rowStats, len(cells))
	sweep(runtime.GOMAXPROCS(0), len(cells), func(ci int) {
		c := cells[ci]
		ls := workload.NewLinearSystem(n, 808)
		ref, _ := jacobi.Sequential(ls, iters, 0)
		cfg := machine.Niagara()
		pf := obs.NewProfiler()
		sys := core.NewSystem(cfg, core.WithObs(&obs.Observer{Prof: pf}))
		inj := fault.NewInjector(c.fc)
		sys.Net.SetFaultInjector(inj)
		lossy := c.fc.DropRate+c.fc.DupRate+c.fc.DelayRate > 0

		x := make([]float64, n)
		stats := make([]fault.ReliableStats, n)
		attrs := core.Attrs{Dist: core.InterProc, Exec: core.AsyncExec, Comm: core.AsyncComm}
		body := func(ctx *core.Ctx) {
			i := ctx.Index()
			rel := fault.NewReliable(ctx, ctx.Endpoint(), c.timeout, maxTries)
			xi := 0.0
			xv := make([]float64, n)
			for it := 0; it < iters; it++ {
				ctx.SUnit(func() {
					ctx.SRound(func() {
						// announce x_i(t), gather x_j(t), compute x_i(t+1);
						// the stop-and-wait acks replace synch_comm's barrier.
						for j := 0; j < n; j++ {
							if j != i {
								if err := rel.Send(ctx.Peer(j), xi); err != nil {
									panic(err)
								}
							}
						}
						for j := 0; j < n; j++ {
							if j != i {
								v, err := rel.RecvFrom(ctx.Peer(j))
								if err != nil {
									panic(err)
								}
								xv[j] = v.(float64)
							}
						}
						var s float64
						for j := 0; j < n; j++ {
							if j != i {
								s += ls.A[i][j] * xv[j]
							}
						}
						xi = -(s - ls.B[i]) / ls.A[i][i]
						ctx.FpOps(int64(2*n - 1))
						ctx.IntOps(1)
					})
				})
			}
			if lossy {
				// Linger so a peer whose last ack was lost is not stranded
				// mid-retransmission when this mailbox goes quiet.
				rel.Drain(rel.MaxBackoffTicks())
			}
			x[i] = xi
			stats[i] = rel.Stats()
		}
		g := sys.NewGroup("rjacobi", attrs, n, body)
		if err := sys.Run(); err != nil {
			panic(fmt.Sprintf("faults cell %s/%d: %v", c.label, c.timeout, err))
		}

		var agg fault.ReliableStats
		for _, s := range stats {
			agg.Sent += s.Sent
			agg.Retransmits += s.Retransmits
			agg.Timeouts += s.Timeouts
			agg.Delivered += s.Delivered
		}
		var faultTicks sim.Time
		for _, p := range pf.Profiles() {
			faultTicks += p.Cats[obs.CatFault]
		}
		exact := true
		for i := range ref {
			if x[i] != ref[i] {
				exact = false
			}
		}
		rows[ci] = rowStats{cell: c, T: g.Report().T(), inj: inj, agg: agg, faultTicks: faultTicks, exact: exact}
	})
	t.row("faults", "timeout", "T", "transfers", "drops", "dups", "delays", "retransmit", "ackwaits", "faultticks", "exact")
	for _, r := range rows {
		t.row(r.label, r.timeout, r.T, r.inj.Transfers(), r.inj.Drops(), r.inj.Dups(), r.inj.Delays(),
			r.agg.Retransmits, r.agg.Timeouts, r.faultTicks, r.exact)
	}
	cleanT := map[sim.Time]sim.Time{} // timeout → clean-link T baseline
	for _, r := range rows {
		if r.fc.DropRate+r.fc.DupRate+r.fc.DelayRate == 0 {
			cleanT[r.timeout] = r.T
		}
	}
	allExact, generousClean, tightClean, dropsCost := true, true, false, true
	for _, r := range rows {
		allExact = allExact && r.exact
		lossy := r.fc.DropRate+r.fc.DupRate+r.fc.DelayRate > 0
		switch {
		case !lossy && r.timeout >= 120:
			// A well-sized timeout on a clean link: the protocol must be
			// invisible — no retransmits, no fault ticks.
			generousClean = generousClean && r.agg.Retransmits == 0 && r.faultTicks == 0
		case !lossy:
			// A timeout below the loaded ack round-trip provokes spurious
			// retransmits; they must cost only time, never answers.
			tightClean = tightClean || (r.agg.Retransmits > 0 && r.exact)
		case r.fc.DropRate > 0:
			dropsCost = dropsCost && r.agg.Retransmits > 0 && r.faultTicks > 0 && r.T > cleanT[r.timeout]
		}
	}
	checks = append(checks, check("every faulty run computes the exact sequential iterate", allExact, ""))
	checks = append(checks, check("clean link with adequate timeout needs no recovery", generousClean, ""))
	checks = append(checks, check("sub-RTT timeout retransmits spuriously but stays exact", tightClean, ""))
	checks = append(checks, check("message loss costs recovery time, visible in the fault category", dropsCost, ""))

	// --- (b) core failures → re-place on survivors -------------------
	const (
		nb     = 8
		iters1 = 12
		iters2 = 12
	)
	cfg := machine.Niagara()
	jm := cost.Jacobi{N: 64, X: 2, Y: 3, WInt: 1}
	env := jm.PaperEnvelope() // cap 3 threads/core, as in §4
	job := sched.Job{Name: "jacobi", N: nb, PowerPerProc: jm.PowerBound(), Dist: core.IntraProc}
	d0 := sched.Allocate(cfg, job, env)
	if !d0.Feasible {
		panic("faults: initial placement infeasible: " + d0.Reason)
	}

	// phase1 runs the synch_comm Jacobi body on lsb with d0's placement
	// and the given core failures armed, snapshotting the iterate after
	// every completed round; it returns the run error, the snapshot, the
	// per-member completed-round counts, the plan and the end time.
	type upd struct {
		from int
		val  float64
	}
	phase1 := func(lsb workload.LinearSystem, fails []fault.CoreFailure) (error, []float64, []int, *fault.Plan, sim.Time) {
		sys := core.NewSystem(cfg)
		snap := make([]float64, nb)
		rounds := make([]int, nb)
		attrs := core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.SynchComm}
		body := func(ctx *core.Ctx) {
			i := ctx.Index()
			xi := 0.0
			xv := make([]float64, nb)
			ctx.BroadcastAll(upd{from: i, val: xi})
			ctx.Barrier()
			for it := 0; it < iters1; it++ {
				ctx.SUnit(func() {
					ctx.SRound(func() {
						for _, m := range ctx.RecvN(nb - 1) {
							u := m.Payload.(upd)
							xv[u.from] = u.val
						}
						var s float64
						for j := 0; j < nb; j++ {
							if j != i {
								s += lsb.A[i][j] * xv[j]
							}
						}
						xi = -(s - lsb.B[i]) / lsb.A[i][i]
						ctx.FpOps(int64(2*nb - 1))
						ctx.IntOps(1)
						ctx.BroadcastAll(upd{from: i, val: xi})
					})
					// Round complete (implicit barrier passed): commit the
					// snapshot a warm restart may resume from.
					snap[i] = xi
					rounds[i] = it + 1
				})
			}
		}
		sys.NewGroupOpts("jacobi", attrs, nb, body, core.WithPlacement(d0.Placement))
		pl := fault.ArmCoreFailures(sys, fails...)
		err := sys.Run()
		return err, snap, rounds, pl, sys.K.Now()
	}

	// A clean probe fixes the failure time: halfway through the run.
	err0, _, _, _, cleanEnd := phase1(workload.NewLinearSystem(nb, 909), nil)
	if err0 != nil {
		panic(err0)
	}
	failAt := cleanEnd / 2

	// d0 occupies cores 0-2 (8 processes, ≤3 per core). The scenarios
	// cover: partial loss with survivors (deadlock signal, feasible
	// re-place), loss of every member's core (the run drains clean — no
	// one is left to deadlock — and the restart happens on untouched
	// silicon), and losing so much of the machine that the allocator
	// must refuse.
	scenarios := []struct {
		name  string
		cores []int
	}{
		{"none", nil},
		{"core 0", []int{0}},
		{"cores 1,2", []int{1, 2}},
		{"cores 0-2", []int{0, 1, 2}},
		{"cores 1-6", []int{1, 2, 3, 4, 5, 6}},
	}

	// Each scenario renders its row and checks into an outcome, appended
	// below in scenario order.
	type outcome struct {
		row         []any
		checks      []Check
		ok, refused bool
	}
	outcomes := make([]outcome, len(scenarios))
	sweep(runtime.GOMAXPROCS(0), len(scenarios), func(si int) {
		sc, o := scenarios[si], &outcomes[si]
		o.ok = true
		lsb := workload.NewLinearSystem(nb, 909)
		var fails []fault.CoreFailure
		for _, c := range sc.cores {
			fails = append(fails, fault.CoreFailure{At: failAt, Core: c})
		}
		err, snap, rounds, pl, end := phase1(lsb, fails)

		rmin, rmax := rounds[0], rounds[0]
		for _, r := range rounds[1:] {
			if r < rmin {
				rmin = r
			}
			if r > rmax {
				rmax = r
			}
		}

		if len(sc.cores) == 0 {
			o.ok = err == nil
			resid := lsb.Residual(snap)
			o.row = []any{sc.name, "-", 0, fmt.Sprintf("%d..%d", rmin, rmax), end, "not needed",
				fmt.Sprintf("%.3g", resid), fmt.Sprintf("%.3g", resid)}
			o.checks = append(o.checks, check("clean run completes all rounds",
				err == nil && rmin == iters1, "rounds %d..%d", rmin, rmax))
			return
		}

		// Kill set must be exactly the members bound to the failed cores.
		wantKilled := 0
		for _, th := range d0.Placement {
			if pl.Down()[cfg.CoreOf(th)] {
				wantKilled++
			}
		}
		killedExact := len(pl.Killed()) == wantKilled

		// The disruption signal: survivors block at the next barrier and
		// the kernel reports a clean deadlock. When the failure took every
		// member, nobody is left to block — the run drains to a clean
		// finish and the plan alone carries the news.
		var dl *sim.ErrDeadlock
		signalOK := errors.As(err, &dl)
		if wantKilled == nb {
			signalOK = err == nil
		}
		if !signalOK {
			o.ok = false
			o.row = []any{sc.name, failAt, len(pl.Killed()), fmt.Sprintf("%d..%d", rmin, rmax), end,
				fmt.Sprintf("unexpected error %v", err), "-", "-"}
			return
		}

		resSnap := lsb.Residual(snap)
		d2 := sched.AllocateExcluding(cfg, job, env, pl.Down())
		if !d2.Feasible {
			o.refused = true
			o.row = []any{sc.name, failAt, len(pl.Killed()), fmt.Sprintf("%d..%d", rmin, rmax), end,
				"infeasible: " + d2.Reason, fmt.Sprintf("%.3g", resSnap), "-"}
			o.checks = append(o.checks, check(fmt.Sprintf("%s: survivors cannot hold the job under the envelope", sc.name),
				!d2.Feasible && killedExact, "%s", d2.Reason))
			return
		}

		// Placement must avoid every down core and respect the envelope.
		avoids := true
		for _, th := range d2.Placement {
			if pl.Down()[cfg.CoreOf(th)] {
				avoids = false
			}
		}
		verifyErr := sched.Verify(cfg, d2, env)

		sysB := core.NewSystem(cfg)
		ph2, err2 := jacobi.Run(sysB, jacobi.Config{
			System: lsb, Iters: iters2, Placement: d2.Placement, X0: snap,
		})
		if err2 != nil {
			panic(err2)
		}
		resFinal := lsb.Residual(ph2.X)
		o.row = []any{sc.name, failAt, len(pl.Killed()), fmt.Sprintf("%d..%d", rmin, rmax), end,
			fmt.Sprintf("%d core(s), ≤%d/core", d2.CoresUsed, d2.ThreadsPerCoreCap),
			fmt.Sprintf("%.3g", resSnap), fmt.Sprintf("%.3g", resFinal)}

		o.ok = killedExact && avoids && verifyErr == nil && resFinal < resSnap && rmin < iters1
		o.checks = append(o.checks, check(fmt.Sprintf("%s: disruption signal, exact kill set, compliant re-place, warm start converges", sc.name),
			o.ok, "killed=%d down=%v resid %.3g→%.3g", len(pl.Killed()), pl.DownList(), resSnap, resFinal))
	})

	t.row("")
	t.row("failure", "at", "killed", "rounds", "T1", "replace", "resid(snap)", "resid(final)")
	degradedOK, infeasibleSeen := true, false
	for _, o := range outcomes {
		t.row(o.row...)
		checks = append(checks, o.checks...)
		degradedOK = degradedOK && o.ok
		infeasibleSeen = infeasibleSeen || o.refused
	}
	checks = append(checks, check("losing most of the machine is reported, not papered over", infeasibleSeen, ""))
	checks = append(checks, check("graceful degradation holds across the sweep", degradedOK, ""))

	return Result{ID: "faults", Title: Title("faults"), Table: t.String(), Checks: checks}
}
