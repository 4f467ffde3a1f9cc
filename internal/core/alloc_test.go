package core

import (
	"testing"

	"repro/internal/machine"
)

// With observability disabled (no WithObs), a charged op and the
// S-unit/S-round structure around it must be allocation-free: the
// instrumentation hooks all take the nil-receiver no-op path, the
// kernel stores events inline in its heap slice, and cost batching
// adds only arithmetic. Absolute zero, not a relative bound — the
// whole zero-alloc hot path is the contract.
func TestChargedOpsAllocationFreeWhenObsDisabled(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	var holdAllocs, opAllocs, unitAllocs, roundAllocs float64
	attrs := Attrs{Dist: IntraProc, Exec: AsyncExec, Comm: SynchComm}
	sys.NewGroup("alloc", attrs, 1, func(ctx *Ctx) {
		// Warm up lazy state (ops counters, event buffers).
		ctx.FpOps(1)
		ctx.IntOps(1)
		holdAllocs = testing.AllocsPerRun(200, func() { ctx.p.Hold(1) })
		opAllocs = testing.AllocsPerRun(200, func() { ctx.FpOps(1) })
		// The unit and round records append to per-process slices whose
		// amortized growth rounds to zero allocations per run.
		unitAllocs = testing.AllocsPerRun(200, func() { ctx.SUnit(func() { ctx.FpOps(1) }) })
		roundAllocs = testing.AllocsPerRun(200, func() { ctx.SRound(func() { ctx.FpOps(1) }) })
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op     string
		allocs float64
	}{
		{"bare Hold", holdAllocs},
		{"FpOps", opAllocs},
		{"SUnit", unitAllocs},
		{"SRound", roundAllocs},
	} {
		if c.allocs != 0 {
			t.Errorf("%s allocates %.2f/run, want 0", c.op, c.allocs)
		}
	}
}
