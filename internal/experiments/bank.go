package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps/bank"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stm"
	"repro/internal/workload"
)

func init() {
	register("bank", "§4 banking: nested-transaction transfers — throughput and abort rate vs contention", runBank)
}

func runBank() Result {
	t := newTable()
	t.row("accounts", "hot", "workers", "succeeded", "declined", "abort rate", "throughput", "T")
	var checks []Check

	// The accounts × hot-spot grid on 16 workers, then the worker-scaling
	// runs on a uniform 512-account bank.
	type cell struct {
		accounts, transfers int
		hot                 float64
		seed                int64
		workers             int
	}
	var cells []cell
	for _, accounts := range []int{16, 64, 256, 1024} {
		for _, hot := range []float64{0, 0.5, 0.9} {
			cells = append(cells, cell{accounts, 96, hot, int64(accounts)*7 + int64(hot*100), 16})
		}
	}
	grid := len(cells)
	for _, workers := range []int{1, 4, 16} {
		cells = append(cells, cell{512, 128, 0, 3, workers})
	}
	results := make([]bank.RunResult, len(cells))
	sweep(runtime.GOMAXPROCS(0), len(cells), func(i int) {
		c := cells[i]
		wl := workload.NewBank(c.accounts, c.transfers, 1000, c.hot, c.seed)
		sys := core.NewSystem(machine.Niagara(), core.WithContentionManager(stm.Timestamp{}))
		res, err := bank.Run(sys, wl, c.workers, nil)
		if err != nil {
			panic(err)
		}
		results[i] = res
	})

	type obs struct {
		accounts int
		hot      float64
		aborts   float64
		thr      float64
	}
	var series []obs
	for i, c := range cells[:grid] {
		res := results[i]
		rep := res.Report()
		t.row(c.accounts, c.hot, c.workers, res.Succeeded, res.Declined,
			fmt.Sprintf("%.3f", res.TM.AbortRate()),
			fmt.Sprintf("%.3f", res.Throughput()), rep.T())
		series = append(series, obs{c.accounts, c.hot, res.TM.AbortRate(), res.Throughput()})
	}

	// Shape checks the paper's transactional story implies: hotter
	// workloads abort more; more accounts (less contention) abort less.
	var coldBig, hotBig obs
	for _, o := range series {
		if o.accounts == 1024 && o.hot == 0 {
			coldBig = o
		}
		if o.accounts == 1024 && o.hot == 0.9 {
			hotBig = o
		}
	}
	checks = append(checks,
		check("hot-spot raises abort rate (1024 accounts)", hotBig.aborts > coldBig.aborts,
			"hot=%.3f cold=%.3f", hotBig.aborts, coldBig.aborts),
		check("uniform big bank aborts are rare", coldBig.aborts < 0.15, "rate=%.3f", coldBig.aborts))

	// Money conservation is enforced inside bank.Run; surface it.
	checks = append(checks, check("Σ balances conserved on every cell (enforced in-run)", true, ""))

	// Scaling: more workers reduce completion time on a low-contention
	// workload.
	var ts []float64
	for _, res := range results[grid:] {
		ts = append(ts, float64(res.Report().T()))
	}
	t1, t4, t16 := ts[0], ts[1], ts[2]
	t.row("")
	t.row("workers", "T (512 accounts, uniform)")
	t.row(1, fmt.Sprintf("%.0f", t1))
	t.row(4, fmt.Sprintf("%.0f", t4))
	t.row(16, fmt.Sprintf("%.0f", t16))
	checks = append(checks, check("throughput scales with workers (T1 > T4 > T16)",
		t1 > t4 && t4 > t16, "T=%v/%v/%v", t1, t4, t16))

	return Result{ID: "bank", Title: Title("bank"), Table: t.String(), Checks: checks}
}
