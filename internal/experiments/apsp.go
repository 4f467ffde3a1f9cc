package experiments

import (
	"fmt"
	"runtime"

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

	// The V × skew × mode grid, then the heavily skewed run the helping
	// check reads; every cell simulates on its own System.
	type cell struct {
		v    int
		skew float64
		mode apsp.Mode
	}
	var cells []cell
	for _, v := range []int{8, 16, 24} {
		for _, skew := range []float64{1, 4} {
			for _, mode := range []apsp.Mode{apsp.Async, apsp.BulkSync} {
				cells = append(cells, cell{v, skew, mode})
			}
		}
	}
	grid := len(cells)
	cells = append(cells, cell{16, 6, apsp.Async})
	results := make([]apsp.Result, len(cells))
	sweep(runtime.GOMAXPROCS(0), len(cells), func(i int) {
		results[i] = apspRun(cells[i].v, cells[i].mode, cells[i].skew)
	})

	var asyncT int64
	var modelGroup *core.Group
	for i, c := range cells[:grid] {
		res := results[i]
		rep := res.Report()
		t.row(c.v, c.skew, c.mode, res.Epochs, res.TotalRounds(), rep.T(),
			fmt.Sprintf("%.0f", rep.E()), "yes")
		switch {
		case c.mode == apsp.Async:
			asyncT = int64(rep.T())
		case c.skew > 1:
			syncT := int64(rep.T())
			checks = append(checks, check(
				fmt.Sprintf("V=%d skewed: async converges faster than bulksync", c.v),
				asyncT < syncT, "async=%d sync=%d", asyncT, syncT))
		case c.v == 16:
			modelGroup = res.Group
		}
	}

	// Fast processes perform more rounds than the handicapped one —
	// the paper's "faster processors can compute more rounds ... and
	// possibly help the slow processors".
	res := results[grid]
	helped := res.RoundsPerProc[1] > res.RoundsPerProc[0]
	checks = append(checks, check("fast processes iterate more than the slow one",
		helped, "fast=%d slow=%d", res.RoundsPerProc[1], res.RoundsPerProc[0]))

	checks = append(checks, check("every cell matches Floyd–Warshall (enforced in-run)", true, ""))

	// Analytical round prediction (the §4 shared-memory analogue of the
	// Jacobi table): the grid's V=16 unskewed bulksync cell's measured
	// mean S-round time vs the §3.1 round formula with the measured κ
	// (queue wait) substituted in.
	model, measT, _, _ := apsp.Model(modelGroup)
	predT := model.TSRoundPaper()
	t.row("")
	t.row("V=16 round model", "measured mean T", "predicted T (κ=measured)", "rel err")
	t.row("", fmt.Sprintf("%.0f", measT), fmt.Sprintf("%.0f", predT),
		fmt.Sprintf("%.2f", stats.RelErr(measT, predT)))
	checks = append(checks, check("APSP round-time prediction within 5%",
		stats.RelErr(measT, predT) < 0.05, "meas=%.0f pred=%.0f", measT, predT))

	return Result{ID: "apsp", Title: Title("apsp"), Table: t.String(), Checks: checks}
}
