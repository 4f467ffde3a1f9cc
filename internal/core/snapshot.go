package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CtxSnapshot is one group member's full checkpointable execution
// state: the operation counters behind E, the fractional-carry residues
// behind deterministic charging, the S-unit/S-round position and
// per-phase measurement records, and the virtual-time profile vector.
// The simulated process itself (its goroutine stack) is NOT captured —
// checkpointing is cooperative, and the application re-enters its body
// at the recorded position on restore.
type CtxSnapshot struct {
	Index    int
	Start    sim.Time
	Counters energy.Counters
	Frac     float64
	FracCat  [obs.NumCategories]float64
	Unit     int
	Round    int
	Rounds   []RoundRec
	Units    []UnitRec
	Prof     obs.CatTimes
}

// Snapshot captures the member's charge and measurement state. It must
// be taken by the member's own process at a quiescent point, outside
// any S-unit or S-round.
func (c *Ctx) Snapshot() CtxSnapshot {
	if c.inUnit || c.inRound {
		panic("core: Snapshot inside an S-unit or S-round")
	}
	s := CtxSnapshot{
		Index: c.idx, Start: c.start, Counters: c.c,
		Frac: c.frac, FracCat: c.fracCat,
		Unit: c.unit, Round: c.round,
		Prof: c.prof.Snapshot(),
	}
	s.Rounds = append([]RoundRec(nil), c.rounds...)
	s.Units = append([]UnitRec(nil), c.units...)
	return s
}

// applyRestore overwrites the member's charge and measurement state
// from a checkpoint. Called at process activation, before the body.
func (c *Ctx) applyRestore(s *CtxSnapshot) {
	c.start = s.Start
	c.c = s.Counters
	c.frac = s.Frac
	c.fracCat = s.FracCat
	c.unit, c.round = s.Unit, s.Round
	c.rounds = append(c.rounds[:0], s.Rounds...)
	c.units = append(c.units[:0], s.Units...)
	if c.prof != nil {
		c.prof.Cats = s.Prof
	}
}

// RestoreNow overwrites the member's charge and measurement state from
// a snapshot immediately — the live-migration counterpart of
// RestoreMember's staged restore. It must be called by the member's own
// process at a quiescent point (outside any S-unit or S-round), at the
// same virtual instant the snapshot was taken: restoring across time
// would rewind T while the kernel clock runs on.
func (c *Ctx) RestoreNow(s CtxSnapshot) {
	if c.inUnit || c.inRound {
		panic("core: RestoreNow inside an S-unit or S-round")
	}
	if s.Index != c.idx {
		panic(fmt.Sprintf("core: RestoreNow on member %d with snapshot of member %d", c.idx, s.Index))
	}
	c.applyRestore(&s)
}

// RestoreMember stages a checkpointed snapshot for member i: it is
// applied when the member's process activates, before its body runs.
// Call between NewGroupOpts and the system run.
func (g *Group) RestoreMember(i int, s CtxSnapshot) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("core: RestoreMember index %d out of range [0,%d)", i, g.n))
	}
	if s.Index != i {
		panic(fmt.Sprintf("core: RestoreMember %d given snapshot of member %d", i, s.Index))
	}
	g.ctxs[i].restoreSnap = &s
}

// BarrierGeneration returns how many times the group barrier has
// tripped.
func (g *Group) BarrierGeneration() int64 { return g.bar.Generation() }

// RestoreBarrierGeneration resets the group barrier's trip counter from
// a checkpoint (see sim.Barrier.RestoreGeneration).
func (g *Group) RestoreBarrierGeneration(gen int64) { g.bar.RestoreGeneration(gen) }
