package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/sim"
)

// ringDigest is everything observable about one ring run:
// per-member completion times and operation counters, plus the network
// statistics.
type ringDigest struct {
	End       [][]sim.Time
	Counters  [][]energy.Counters
	Delivered int64
	Wire      sim.Time
	Occupancy float64
	MaxInbox  int
}

// runRing builds a clustered machine (2 clusters × 2 chips × 2
// cores × 2 threads), places one two-member group per chip, and runs a
// cross-chip message ring: rank 0 of each chip computes, sends to the
// next chip, receives from the previous, and barriers with its
// chip-mate each round.
func runRing(t *testing.T) ringDigest {
	t.Helper()
	cfg := machine.Cluster(2, 2, 2, 2)
	sys := NewSystem(cfg)
	if sys.SG != nil {
		t.Error("NewSystem set SG; every System runs on its one kernel")
	}

	nChips := cfg.Chips
	perChip := cfg.CoresPerChip * cfg.ThreadsPerCore
	dig := ringDigest{
		End:      make([][]sim.Time, nChips),
		Counters: make([][]energy.Counters, nChips),
	}
	groups := make([]*Group, nChips)
	for chip := 0; chip < nChips; chip++ {
		chip := chip
		pl := Placement{
			machine.ThreadID(chip * perChip),
			machine.ThreadID(chip*perChip + 2), // second core of the chip
		}
		dig.End[chip] = make([]sim.Time, len(pl))
		dig.Counters[chip] = make([]energy.Counters, len(pl))
		groups[chip] = sys.NewGroupOpts("chip"+string(rune('0'+chip)), Attrs{Dist: IntraProc, Exec: AsyncExec, Comm: AsyncComm}, len(pl),
			func(c *Ctx) {
				if c.Index() == 0 {
					next := groups[(chip+1)%nChips].Ctxs()[0].Endpoint()
					for r := 0; r < ringRounds; r++ {
						c.IntOps(int64(3 + chip + r))
						c.Endpoint().Send(c, next, chip*100+r)
						m := c.Recv()
						if got := m.Payload.(int) % 100; got != r {
							t.Errorf("chip %d round %d: got payload %v", chip, r, m.Payload)
						}
						c.Barrier()
					}
				} else {
					for r := 0; r < ringRounds; r++ {
						c.FpOps(int64(2 + chip))
						c.Barrier()
					}
				}
				dig.End[chip][c.Index()] = c.Now()
			},
			WithPlacement(pl))
	}
	if err := sys.Run(); err != nil {
		t.Errorf("ring: %v", err)
		return dig
	}
	for chip, g := range groups {
		for i, c := range g.Ctxs() {
			dig.Counters[chip][i] = *c.Counters()
		}
	}
	dig.Delivered = sys.Net.Delivered()
	dig.Wire = sys.Net.WireTicks()
	dig.Occupancy = sys.Net.OccupancyTicks()
	dig.MaxInbox = sys.Net.MaxInboxDepth()
	return dig
}

const ringRounds = 5

// TestShardedSystemEquivalence shards the cross-chip ring over host
// goroutines: 2 and 4 Systems run it at once, and every copy must be
// bit-identical to a run alone — a System shares no mutable state with
// the others in its process. The lone run's network totals must match
// the ring's closed form: one delivery per chip per round, and per
// round two cluster-internal (L_x) and two cross-cluster (L_c) hops.
func TestShardedSystemEquivalence(t *testing.T) {
	ref := runRing(t)
	costs := machine.Cluster(2, 2, 2, 2).Costs
	if ref.Delivered != 4*ringRounds {
		t.Fatalf("delivered %d, want %d", ref.Delivered, 4*ringRounds)
	}
	if want := ringRounds * (2*costs.EffLX() + 2*costs.EffLC()); ref.Wire != want {
		t.Fatalf("wire %d, want %d", ref.Wire, want)
	}
	for _, copies := range []int{2, 4} {
		got := make([]ringDigest, copies)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runRing(t)
			}()
		}
		wg.Wait()
		for i, g := range got {
			if !reflect.DeepEqual(g, ref) {
				t.Errorf("copy %d of %d diverged from the lone run:\n got %+v\nwant %+v", i, copies, g, ref)
			}
		}
	}
}
