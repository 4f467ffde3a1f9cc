package experiments

import (
	"fmt"

	"repro/internal/apps/apsp"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("apsp", "§4 APSP: asynchronous vs bulk-synchronous convergence, incl. heterogeneous speeds", runAPSP)
}

func apspRun(v int, mode apsp.Mode, slowFirst float64) apsp.Result {
	g := workload.NewRandomGraph(v, 0.25, 40, int64(v)*13)
	var slow []float64
	if slowFirst > 1 {
		slow = make([]float64, v)
		for i := range slow {
			slow[i] = 1
		}
		slow[0] = slowFirst
	}
	sys := core.NewSystem(machine.Niagara())
	res, err := apsp.Run(sys, apsp.Config{Graph: g, Mode: mode, SlowFactor: slow})
	if err != nil {
		panic(err)
	}
	if want := apsp.FloydWarshall(g); !apsp.Equal(res.Dist, want) {
		panic(fmt.Sprintf("apsp v=%d %v: wrong distances", v, mode))
	}
	return res
}

func runAPSP() Result {
	t := newTable()
	t.row("V", "skew", "mode", "epochs", "total rounds", "T", "E", "correct")
	var checks []Check

	for _, v := range []int{8, 16, 24} {
		for _, skew := range []float64{1, 4} {
			var asyncT, syncT int64
			for _, mode := range []apsp.Mode{apsp.Async, apsp.BulkSync} {
				res := apspRun(v, mode, skew)
				rep := res.Report()
				t.row(v, skew, mode, res.Epochs, res.TotalRounds(), rep.T(),
					fmt.Sprintf("%.0f", rep.E()), "yes")
				if mode == apsp.Async {
					asyncT = int64(rep.T())
				} else {
					syncT = int64(rep.T())
				}
			}
			if skew > 1 {
				checks = append(checks, check(
					fmt.Sprintf("V=%d skewed: async converges faster than bulksync", v),
					asyncT < syncT, "async=%d sync=%d", asyncT, syncT))
			}
		}
	}

	// Fast processes perform more rounds than the handicapped one —
	// the paper's "faster processors can compute more rounds ... and
	// possibly help the slow processors".
	res := apspRun(16, apsp.Async, 6)
	helped := res.RoundsPerProc[1] > res.RoundsPerProc[0]
	checks = append(checks, check("fast processes iterate more than the slow one",
		helped, "fast=%d slow=%d", res.RoundsPerProc[1], res.RoundsPerProc[0]))

	checks = append(checks, check("every cell matches Floyd–Warshall (enforced in-run)", true, ""))

	// Analytical round prediction (the §4 shared-memory analogue of the
	// Jacobi table): measured mean S-round time and energy vs the cost
	// model with the measured κ (queue wait) substituted in, using the
	// unpipelined g_eff = ℓ_e + g_sh_e mapping documented in
	// EXPERIMENTS.md.
	model, measT, _, _ := apsp.Model(apspRun(16, apsp.BulkSync, 1).Group)
	predT := model.TSRoundEffective()
	t.row("")
	t.row("V=16 round model", "measured mean T", "predicted T (κ=measured)", "rel err")
	t.row("", fmt.Sprintf("%.0f", measT), fmt.Sprintf("%.0f", predT),
		fmt.Sprintf("%.2f", stats.RelErr(measT, predT)))
	checks = append(checks, check("APSP round-time prediction within 30%",
		stats.RelErr(measT, predT) < 0.3, "meas=%.0f pred=%.0f", measT, predT))

	return Result{ID: "apsp", Title: Title("apsp"), Table: t.String(), Checks: checks}
}
