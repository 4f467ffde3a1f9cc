package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps/airline"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

func init() {
	register("airline", "§4 airline: partial-commit decision vs strict atomicity as seats fill", runAirline)
}

func runAirline() Result {
	t := newTable()
	t.row("seats/leg", "policy", "success", "partial", "failed", "legs committed", "success rate")
	var checks []Check

	type cell struct {
		seats int64
		pol   airline.Policy
	}
	var cells []cell
	for _, seats := range []int64{1, 2, 4, 8, 32} {
		for _, pol := range []airline.Policy{airline.Partial, airline.Strict} {
			cells = append(cells, cell{seats, pol})
		}
	}
	results := make([]airline.RunResult, len(cells))
	sweep(runtime.GOMAXPROCS(0), len(cells), func(i int) {
		wl := workload.NewAirline(6, cells[i].seats, 120, 31)
		sys := core.NewSystem(machine.Niagara())
		res, err := airline.Run(sys, wl, 8, cells[i].pol)
		if err != nil {
			panic(err)
		}
		results[i] = res
	})

	for i, c := range cells {
		res := results[i]
		t.row(c.seats, c.pol,
			res.Outcomes[airline.Success], res.Outcomes[airline.PartialSuccess],
			res.Outcomes[airline.Failed], res.LegsCommitted,
			fmt.Sprintf("%.3f", res.SuccessRate()))
	}

	// Shape: under scarcity (few seats) the partial policy books more
	// legs than strict; with abundant seats the two coincide. The cells
	// run partial then strict per seat count, fewest seats first.
	scarceP, scarceS := results[0], results[1]
	abundantP, abundantS := results[len(results)-2], results[len(results)-1]
	checks = append(checks,
		check("scarce seats: partial books more legs than strict",
			scarceP.LegsCommitted > scarceS.LegsCommitted,
			"partial=%d strict=%d", scarceP.LegsCommitted, scarceS.LegsCommitted),
		check("scarce seats: partial successes appear", scarceP.Outcomes[airline.PartialSuccess] > 0,
			"partials=%d", scarceP.Outcomes[airline.PartialSuccess]),
		check("abundant seats: both policies complete everything",
			abundantP.Outcomes[airline.Success] == 120 && abundantS.Outcomes[airline.Success] == 120,
			"partial=%d strict=%d", abundantP.Outcomes[airline.Success], abundantS.Outcomes[airline.Success]),
		check("seat conservation enforced on every cell (in-run)", true, ""))

	return Result{ID: "airline", Title: Title("airline"), Table: t.String(), Checks: checks}
}
