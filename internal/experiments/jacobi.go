package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("jacobi", "§4 Jacobi: analytical T/E/P vs simulator measurements", runJacobi)
}

func runJacobi() Result {
	t := newTable()
	t.row("n", "T_meas", "T_pred", "relT", "E_meas", "E_pred", "relE", "T_unit", "2n bound", "P_unit", "(x+y)w bound")
	var checks []Check

	// The four table sizes, then the correctness anchor: 20 iterations
	// on one seed, compared against the sequential baseline below.
	type cell struct {
		n     int
		seed  int64
		iters int
	}
	var cells []cell
	for _, n := range []int{8, 16, 32, 64} {
		cells = append(cells, cell{n, int64(100 + n), 4})
	}
	anchor := len(cells)
	cells = append(cells, cell{16, 999, 20})
	type run struct {
		sys *core.System
		res jacobi.Result
	}
	runs := make([]run, len(cells))
	sweep(runtime.GOMAXPROCS(0), len(cells), func(i int) {
		c := cells[i]
		sys := core.NewSystem(machine.Niagara())
		res, err := jacobi.Run(sys, jacobi.Config{System: workload.NewLinearSystem(c.n, c.seed), Iters: c.iters})
		if err != nil {
			panic(err)
		}
		runs[i] = run{sys, res}
	})

	worstRelT, worstRelE := 0.0, 0.0
	for i, c := range cells[:anchor] {
		n, sys, res := c.n, runs[i].sys, runs[i].res
		model := jacobi.Model(sys, res.Group, n)

		mt, me := jacobi.MeasuredRound(res.Group, 2) // steady-state round
		pt, pe := model.TSRound(), model.ESRound()
		relT := stats.RelErr(float64(mt), pt)
		relE := stats.RelErr(me, pe)
		if relT > worstRelT {
			worstRelT = relT
		}
		if relE > worstRelE {
			worstRelE = relE
		}

		us := res.Group.UnitStats(2)
		unitT := float64(us.MaxT)
		unitP := us.SumE / float64(us.Count) / unitT // per-process S-unit power

		t.row(n,
			mt, fmt.Sprintf("%.0f", pt), fmt.Sprintf("%.2f", relT),
			fmt.Sprintf("%.0f", me), fmt.Sprintf("%.0f", pe), fmt.Sprintf("%.2f", relE),
			us.MaxT, 2*n,
			fmt.Sprintf("%.2f", unitP), fmt.Sprintf("%.0f", model.PowerBound()))

		checks = append(checks,
			check(fmt.Sprintf("n=%d: measured T_S-unit ≥ 2n", n), unitT >= float64(2*n),
				"T=%v 2n=%d", us.MaxT, 2*n),
			check(fmt.Sprintf("n=%d: measured P_S-unit ≤ (x+y)w_int", n),
				unitP <= model.PowerBound()+1e-9,
				"P=%.3f bound=%.0f", unitP, model.PowerBound()))
	}

	checks = append(checks,
		check("round-time prediction within 60%", worstRelT < 0.6, "worst rel err %.2f", worstRelT),
		check("round-energy prediction within 30%", worstRelE < 0.3, "worst rel err %.2f", worstRelE))

	// Correctness anchor: distributed equals sequential on one seed.
	c := cells[anchor]
	res := runs[anchor].res
	seq, _ := jacobi.Sequential(workload.NewLinearSystem(c.n, c.seed), c.iters, 0)
	same := true
	for i := range seq {
		if d := res.X[i] - seq[i]; d > 1e-9 || d < -1e-9 {
			same = false
		}
	}
	checks = append(checks, check("distributed result equals sequential baseline", same, ""))

	return Result{ID: "jacobi", Title: Title("jacobi"), Table: t.String(), Checks: checks}
}
