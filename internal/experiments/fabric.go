package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/workload"
)

func init() {
	register("fabric", "ablation: the two communication families — Jacobi over message passing vs shared memory", runFabric)
}

func runFabric() Result {
	t := newTable()
	t.row("n", "fabric", "T", "E", "P", "reads", "writes", "sends", "recvs")
	var checks []Check

	// One cell per size and fabric, message passing first.
	sizes := []int{8, 16, 32}
	const iters = 4
	results := make([]jacobi.Result, 2*len(sizes))
	sweep(runtime.GOMAXPROCS(0), len(results), func(i int) {
		n := sizes[i/2]
		ls := workload.NewLinearSystem(n, int64(300+n))
		sys := core.NewSystem(machine.Niagara())
		var err error
		if i%2 == 0 {
			results[i], err = jacobi.Run(sys, jacobi.Config{System: ls, Iters: iters})
		} else {
			results[i], err = jacobi.RunShared(sys, jacobi.SharedConfig{System: ls, Iters: iters})
		}
		if err != nil {
			panic(err)
		}
	})

	type obs struct {
		n            int
		mpT, shmT    float64
		mpR, shmR    roundCosts
		agreeExactly bool
	}
	var series []obs
	for k, n := range sizes {
		mp, shm := results[2*k], results[2*k+1]
		same := true
		for i := range mp.X {
			if d := mp.X[i] - shm.X[i]; d > 1e-12 || d < -1e-12 {
				same = false
			}
		}
		mpRep, shmRep := mp.Report(), shm.Report()
		t.row(n, "message passing", mpRep.T(), fmt.Sprintf("%.0f", mpRep.E()),
			fmt.Sprintf("%.3f", mpRep.Power()), mpRep.Ops.Reads(), mpRep.Ops.Writes(),
			mpRep.Ops.Sends(), mpRep.Ops.Recvs())
		t.row(n, "shared memory", shmRep.T(), fmt.Sprintf("%.0f", shmRep.E()),
			fmt.Sprintf("%.3f", shmRep.Power()), shmRep.Ops.Reads(), shmRep.Ops.Writes(),
			shmRep.Ops.Sends(), shmRep.Ops.Recvs())
		series = append(series, obs{
			n:   n,
			mpT: float64(mpRep.T()), shmT: float64(shmRep.T()),
			mpR: roundModel(mp.Group), shmR: roundModel(shm.Group),
			agreeExactly: same,
		})
	}

	for _, o := range series {
		checks = append(checks, check(
			fmt.Sprintf("n=%d: both fabrics compute the identical iterate", o.n),
			o.agreeExactly, ""))
	}
	// Who wins is a machine-constant question, which is the model's
	// whole point; what §3.1 decides is how each fabric's round time
	// grows in n. Cost every S-round from its own measured counts and
	// queue wait, and compare the growth from the first size to the
	// last that the formula predicts with the growth measured.
	first, last := series[0], series[len(series)-1]
	predMp, predShm := last.mpR.pred-first.mpR.pred, last.shmR.pred-first.shmR.pred
	measMp, measShm := last.mpR.meas-first.mpR.meas, last.shmR.meas-first.shmR.meas
	checks = append(checks,
		check(fmt.Sprintf("§3.1 predicts which fabric's round time grows more slowly in n (n=%d→%d)", first.n, last.n),
			(predShm < predMp) == (measShm < measMp),
			"predicted shm %+.0f mp %+.0f, measured shm %+.0f mp %+.0f", predShm, predMp, measShm, measMp),
		// The fabric whose rounds grow more slowly overtakes the other
		// once n is large enough; on these constants, within the sweep.
		check(fmt.Sprintf("the faster fabric flips between n=%d and n=%d", first.n, last.n),
			(first.mpT < first.shmT) != (last.mpT < last.shmT),
			"n=%d mp=%.0f shm=%.0f, n=%d mp=%.0f shm=%.0f",
			first.n, first.mpT, first.shmT, last.n, last.mpT, last.shmT))
	// Both fabrics have linear per-process traffic per round (n−1
	// messages vs n reads), so T over 4× the problem size stays well
	// under the quadratic ratio 16 for both.
	checks = append(checks,
		check("message-passing T scales sub-quadratically", last.mpT/first.mpT < 8,
			"ratio %.1f", last.mpT/first.mpT),
		check("shared-memory T scales sub-quadratically", last.shmT/first.shmT < 8,
			"ratio %.1f", last.shmT/first.shmT))

	return Result{ID: "fabric", Title: Title("fabric"), Table: t.String(), Checks: checks}
}

// roundCosts is the mean S-round time of a group's members: measured,
// and predicted by §3.1 from each round's own measured counts.
type roundCosts struct{ meas, pred float64 }

// roundModel costs every S-round of g with cost.Round.T: the traffic
// comes from the round's counters, κ from its queue wait, and the P_a
// and P_e brackets from whether it moved intra- or inter-processor
// traffic.
func roundModel(g *core.Group) roundCosts {
	m := cost.FromCostTable(g.Ctxs()[0].System().M.Cfg.Costs)
	var rc roundCosts
	n := 0
	for _, c := range g.Ctxs() {
		for _, r := range c.Rounds() {
			cr := cost.FromCounters(r.Ops)
			cr.Kappa = float64(r.Ops.QueueWait)
			if cr.DRa+cr.DWa+cr.MSa+cr.MRa > 0 {
				cr.PA = 1
			}
			if cr.DRe+cr.DWe+cr.MSe+cr.MRe > 0 {
				cr.PE = 1
			}
			rc.meas += float64(r.T())
			rc.pred += cr.T(m)
			n++
		}
	}
	rc.meas /= float64(n)
	rc.pred /= float64(n)
	return rc
}
