package stamp_test

import (
	"errors"
	"strings"
	"testing"

	"repro/stamp"
)

func TestQuickstartFlow(t *testing.T) {
	sys := stamp.NewSystem(stamp.Niagara())
	vec := stamp.NewRegion[float64](sys, "v", stamp.Inter, 0, 16)
	attrs := stamp.Attrs{Dist: stamp.InterProc, Exec: stamp.AsyncExec, Comm: stamp.AsyncComm}
	g := sys.NewGroup("w", attrs, 4, func(ctx *stamp.Ctx) {
		base := ctx.Index() * 4
		ctx.SRound(func() {
			for i := base; i < base+4; i++ {
				vec.Write(ctx, i, float64(i))
				ctx.FpOps(1)
			}
		})
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep := g.Report()
	if rep.T() <= 0 || rep.E() <= 0 || rep.Power() <= 0 {
		t.Fatalf("degenerate report %v", rep)
	}
	if vec.Peek(7) != 7 {
		t.Fatalf("vec[7] = %v", vec.Peek(7))
	}
}

func TestTransactionsThroughFacade(t *testing.T) {
	sys := stamp.NewSystem(stamp.Niagara(), stamp.WithContentionManager(stamp.Timestamp{}))
	v := stamp.NewTVar(sys, "v", int64(0))
	userErr := errors.New("no")
	attrs := stamp.Attrs{Dist: stamp.IntraProc, Exec: stamp.TransExec, Comm: stamp.SynchComm}
	sys.NewGroup("tx", attrs, 4, func(ctx *stamp.Ctx) {
		if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
			v.Modify(tx, func(x int64) int64 { return x + 1 })
			return nil
		}); err != nil {
			t.Errorf("commit path: %v", err)
		}
		if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
			v.Set(tx, 999)
			return userErr
		}); !errors.Is(err, userErr) {
			t.Errorf("abort path: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 4 {
		t.Fatalf("counter %d, want 4 (user aborts rolled back)", v.Value())
	}
	if sys.TM.Commits() != 4 {
		t.Fatalf("commits %d", sys.TM.Commits())
	}
}

func TestCostModelThroughFacade(t *testing.T) {
	m := stamp.CostFromTable(stamp.DefaultCosts())
	r := stamp.CostRound{CFp: 10, CInt: 5, PA: 2, SharedMem: true, DRa: 3}
	if r.T(m) <= 0 || r.E(m) <= 0 {
		t.Fatal("degenerate analytical result")
	}
	j := stamp.JacobiModel{N: 64, L: 5, G: 1, X: 2, Y: 3, WInt: 1}
	if j.MaxThreadsUnderEnvelope(j.PaperEnvelope()) != 3 {
		t.Fatal("paper decision not reproduced through facade")
	}
}

func TestAllocatorThroughFacade(t *testing.T) {
	d := stamp.Allocate(stamp.Niagara(),
		stamp.Job{Name: "j", N: 4, PowerPerProc: 5, Dist: stamp.IntraProc}, 15)
	if !d.Feasible || d.ThreadsPerCoreCap != 3 {
		t.Fatalf("allocator: %+v", d)
	}
	c := stamp.ChoosePlacement(stamp.Niagara(),
		stamp.Job{Name: "j", N: 3, PowerPerProc: 5}, 15)
	if c.Job.Dist != stamp.IntraProc {
		t.Fatalf("choose: %v", c.Job.Dist)
	}
}

func TestTable1Facade(t *testing.T) {
	if len(stamp.Table1(stamp.IntraProc)) != 4 {
		t.Fatal("table1 combos wrong")
	}
}

func TestMetricsFacade(t *testing.T) {
	r := stamp.Report{D: 10, E: 40}
	for _, m := range []stamp.Metric{stamp.MetricD, stamp.MetricPDP, stamp.MetricEDP, stamp.MetricED2P} {
		if m.Eval(r) <= 0 {
			t.Fatalf("metric %v degenerate", m)
		}
	}
}

func TestMessagingFacade(t *testing.T) {
	sys := stamp.NewSystem(stamp.Generic())
	attrs := stamp.Attrs{Dist: stamp.InterProc, Exec: stamp.AsyncExec, Comm: stamp.SynchComm}
	got := make([]any, 2)
	sys.NewGroup("msg", attrs, 2, func(ctx *stamp.Ctx) {
		ctx.SendTo(1-ctx.Index(), ctx.Index()*10)
		got[ctx.Index()] = ctx.Recv().Payload
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 0 {
		t.Fatalf("payloads %v", got)
	}
}

func TestPlacementFacade(t *testing.T) {
	sys := stamp.NewSystem(stamp.Niagara())
	g := sys.NewGroupOpts("pl", stamp.Attrs{Comm: stamp.AsyncComm}, 2,
		func(ctx *stamp.Ctx) {}, stamp.WithPlacement(stamp.Placement{9, 13}))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep := g.Report()
	if rep.PerProc[0].Thread != 9 || rep.PerProc[1].Thread != 13 {
		t.Fatalf("placement %v", rep.PerProc)
	}
}

func TestMachinePresetsFacade(t *testing.T) {
	for _, cfg := range []stamp.Config{stamp.Niagara(), stamp.Generic(), stamp.SingleCore(), stamp.BigLittle(2, 2, 0.5)} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	if stamp.DefaultCosts().WInt != 1 {
		t.Fatal("default costs changed unexpectedly")
	}
}

func TestOptimizerFacade(t *testing.T) {
	w := stamp.OptWorkload{Name: "w", TotalFp: 1024, Iterations: 2}
	best, all := stamp.Optimize(stamp.Niagara(), w, stamp.MetricD, 0, []float64{1})
	if !best.Feasible || len(all) == 0 {
		t.Fatalf("optimize failed: %+v", best)
	}
}

func TestTracerFacade(t *testing.T) {
	tr := stamp.NewTracer()
	sys := stamp.NewSystem(stamp.Niagara(), stamp.WithTracer(tr))
	sys.NewGroup("tr", stamp.Attrs{Comm: stamp.AsyncComm}, 1, func(ctx *stamp.Ctx) {
		ctx.SRound(func() { ctx.IntOps(1) })
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// One proc span enclosing one round span.
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Cat != "proc" || spans[1].Cat != "round" || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans %+v, want proc ⊃ round", spans)
	}
	if !strings.Contains(tr.Timeline(30), "tr/0") {
		t.Fatal("timeline has no lane for tr/0")
	}
}

func TestRetryFacade(t *testing.T) {
	sys := stamp.NewSystem(stamp.Niagara())
	v := stamp.NewTVar(sys, "v", int64(0))
	var got int64
	sys.NewGroup("w", stamp.Attrs{Comm: stamp.AsyncComm}, 1, func(ctx *stamp.Ctx) {
		if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
			if v.Get(tx) == 0 {
				tx.Retry()
			}
			got = v.Get(tx)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	sys.NewGroup("s", stamp.Attrs{Comm: stamp.AsyncComm}, 1, func(ctx *stamp.Ctx) {
		ctx.IntOps(20)
		if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
			v.Set(tx, 42)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("retry facade got %d", got)
	}
}

func TestCostFromCountersFacade(t *testing.T) {
	r := stamp.CostFromCounters(stamp.Counters{FpOps: 3, SendsIntra: 1})
	if !r.MsgPassing || r.SharedMem {
		t.Fatal("family toggles wrong through facade")
	}
}

func TestUnitAggregationFacade(t *testing.T) {
	m := stamp.CostFromTable(stamp.DefaultCosts())
	u := stamp.CostUnit{Rounds: []stamp.CostRound{{CInt: 5}}, TC: 2}
	if u.T(m) != 7 {
		t.Fatalf("unit T %g", u.T(m))
	}
}
