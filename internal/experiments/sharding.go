package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The id is fixed: the repo benchmark (BENCHMARK.json) reports this
// experiment's wall time as experiments.sharding.ms.
func init() {
	register("sharding", "clusters of chips: cross-chip message ring over the L_x/L_c tiers", runClusterRing)
}

// ringRounds is the number of rounds the ring runs.
const ringRounds = 12

// runClusterRing runs a cross-chip message ring on a clustered machine
// (2 clusters × 2 chips × 2 cores × 2 threads): one group per chip
// whose rank 0 computes, sends to the next chip and receives from the
// previous one each round, while rank 1 computes and barriers. The
// ring's four hops alternate cluster-internal (L_x) and cross-cluster
// (L_c) links, so its summed wire time has a closed form. The table
// reports per-chip completion time and energy plus the network totals.
func runClusterRing() Result {
	cfg := machine.Cluster(2, 2, 2, 2)
	sys := core.NewSystem(cfg)

	nChips := cfg.Chips
	perChip := cfg.CoresPerChip * cfg.ThreadsPerCore
	groups := make([]*core.Group, nChips)
	for chip := 0; chip < nChips; chip++ {
		chip := chip
		pl := core.Placement{
			machine.ThreadID(chip * perChip),
			machine.ThreadID(chip*perChip + 2),
		}
		groups[chip] = sys.NewGroupOpts(fmt.Sprintf("ring/%d", chip),
			core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.AsyncComm},
			len(pl),
			func(c *core.Ctx) {
				if c.Index() == 0 {
					next := groups[(chip+1)%nChips].Ctxs()[0].Endpoint()
					for r := 0; r < ringRounds; r++ {
						c.SRound(func() {
							c.IntOps(int64(5 + chip + r))
							c.Endpoint().Send(c, next, chip*1000+r)
							c.Recv()
							c.Barrier()
						})
					}
				} else {
					for r := 0; r < ringRounds; r++ {
						c.SRound(func() {
							c.FpOps(int64(3 + chip))
							c.Barrier()
						})
					}
				}
			},
			core.WithPlacement(pl))
	}
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("sharding experiment: %v", err))
	}

	delivered, wire := sys.Net.Delivered(), sys.Net.WireTicks()
	t := newTable()
	t.row("chip", "T", "E", "delivered", "wire")
	for chip, g := range groups {
		rep := g.Report()
		t.row(chip, rep.T(), fmt.Sprintf("%.0f", rep.E()), delivered, wire)
	}
	lx, lc := cfg.Costs.EffLX(), cfg.Costs.EffLC()
	wantWire := sim.Time(ringRounds) * (2*lx + 2*lc)
	checks := []Check{
		check("ring delivered one message per chip per round",
			delivered == int64(nChips*ringRounds), "got %d", delivered),
		check(fmt.Sprintf("wire = %d·(2·L_x + 2·L_c) = %d (L_x=%d, L_c=%d)", ringRounds, wantWire, lx, lc),
			wire == wantWire, "got %d", wire),
	}
	return Result{ID: "sharding", Title: Title("sharding"), Table: t.String(), Checks: checks}
}
