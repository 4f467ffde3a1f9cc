package core

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stm"
)

func TestAttrsStrings(t *testing.T) {
	a := Attrs{Dist: IntraProc, Exec: AsyncExec, Comm: SynchComm}
	if got := a.String(); got != "[intra_proc, async_exec, synch_comm]" {
		t.Fatalf("attrs string %q", got)
	}
	b := Attrs{Dist: InterProc, Exec: TransExec, Comm: AsyncComm}
	if got := b.String(); got != "[inter_proc, trans_exec, async_comm]" {
		t.Fatalf("attrs string %q", got)
	}
}

func TestTable1HasFourDistinctCombos(t *testing.T) {
	combos := Table1(IntraProc)
	if len(combos) != 4 {
		t.Fatalf("table 1 has %d combos", len(combos))
	}
	seen := map[string]bool{}
	for _, a := range combos {
		if seen[a.String()] {
			t.Fatalf("duplicate combo %v", a)
		}
		seen[a.String()] = true
	}
}

func TestIntraPlacementPacksOneCore(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	pl := sys.PlaceGroup(IntraProc, 4)
	for i, th := range pl {
		if sys.M.Cfg.CoreOf(th) != 0 {
			t.Fatalf("intra placement member %d on core %d", i, sys.M.Cfg.CoreOf(th))
		}
	}
}

func TestInterPlacementSpreadsCores(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	pl := sys.PlaceGroup(InterProc, 8)
	cores := map[int]bool{}
	for _, th := range pl {
		cores[sys.M.Cfg.CoreOf(th)] = true
	}
	if len(cores) != 8 {
		t.Fatalf("inter placement used %d cores, want 8", len(cores))
	}
}

func TestPlacementOversubscriptionWraps(t *testing.T) {
	sys := NewSystem(machine.SingleCore())
	pl := sys.PlaceGroup(InterProc, 3)
	for _, th := range pl {
		if th != 0 {
			t.Fatalf("single-core placement chose thread %d", th)
		}
	}
}

func TestFpIntOpsChargeTimeAndCount(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	g := sys.NewGroup("k", Attrs{}, 1, func(ctx *Ctx) {
		ctx.FpOps(10)
		ctx.IntOps(5)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r := g.Report()
	if r.Ops.FpOps != 10 || r.Ops.IntOps != 5 {
		t.Fatalf("counters fp=%d int=%d", r.Ops.FpOps, r.Ops.IntOps)
	}
	if r.T() != 15 { // TFp = TInt = 1
		t.Fatalf("T = %d, want 15", r.T())
	}
	// E = 10·w_fp + 5·w_int = 10·2 + 5·1 = 25
	if r.E() != 25 {
		t.Fatalf("E = %g, want 25", r.E())
	}
}

func TestSynchCommRoundsBarrier(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	attrs := Attrs{Dist: IntraProc, Exec: AsyncExec, Comm: SynchComm}
	var ends []sim.Time
	g := sys.NewGroup("jac", attrs, 4, func(ctx *Ctx) {
		ctx.SRound(func() {
			ctx.IntOps(int64(10 * (ctx.Index() + 1))) // skewed work
		})
		ends = append(ends, ctx.Now())
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range ends {
		if e != 40 {
			t.Fatalf("synch_comm round ended at %v, want all at 40", ends)
		}
	}
	rs := g.RoundStats(0, 0)
	if rs.Count != 4 || rs.MaxT != 40 {
		t.Fatalf("round stats %+v", rs)
	}
}

func TestAsyncCommRoundsDoNotBarrier(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	attrs := Attrs{Dist: InterProc, Exec: AsyncExec, Comm: AsyncComm}
	var ends []sim.Time
	sys.NewGroup("apsp", attrs, 4, func(ctx *Ctx) {
		ctx.SRound(func() {
			ctx.IntOps(int64(10 * (ctx.Index() + 1)))
		})
		ends = append(ends, ctx.Now())
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	distinct := map[sim.Time]bool{}
	for _, e := range ends {
		distinct[e] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("async rounds synchronized anyway: %v", ends)
	}
}

func TestSUnitRecordsRoundsAndOutsideWork(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	g := sys.NewGroup("u", Attrs{Comm: AsyncComm}, 1, func(ctx *Ctx) {
		ctx.SUnit(func() {
			ctx.IntOps(2) // T_c: local computation outside rounds
			ctx.SRound(func() { ctx.FpOps(5) })
			ctx.SRound(func() { ctx.FpOps(7) })
			ctx.IntOps(1)
		})
		ctx.SUnit(func() {
			ctx.SRound(func() { ctx.IntOps(3) })
		})
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	c := g.Ctxs()[0]
	if len(c.Units()) != 2 {
		t.Fatalf("units = %d, want 2", len(c.Units()))
	}
	u0 := c.Units()[0]
	if u0.Rounds != 2 {
		t.Fatalf("unit 0 rounds = %d, want 2", u0.Rounds)
	}
	if u0.T() != 15 { // 2 + 5 + 7 + 1
		t.Fatalf("unit 0 T = %d, want 15", u0.T())
	}
	if u0.Ops.FpOps != 12 || u0.Ops.IntOps != 3 {
		t.Fatalf("unit 0 ops %+v", u0.Ops)
	}
	if g.MaxUnits() != 2 || g.MaxRounds() != 3 {
		t.Fatalf("max units %d rounds %d", g.MaxUnits(), g.MaxRounds())
	}
	// T_S-unit = Σ T_S-round + T_c (rule 2).
	var roundT sim.Time
	for _, r := range c.Rounds() {
		if r.Unit == 0 {
			roundT += r.T()
		}
	}
	if u0.T() != roundT+3 {
		t.Fatalf("unit T %d != rounds %d + outside 3", u0.T(), roundT)
	}
}

func TestNestedSUnitPanics(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	sys.NewGroup("bad", Attrs{}, 1, func(ctx *Ctx) {
		ctx.SUnit(func() { ctx.SUnit(func() {}) })
	})
	if err := sys.Run(); err == nil {
		t.Fatal("nested S-unit did not error")
	}
}

func TestNestedSRoundPanics(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	sys.NewGroup("bad", Attrs{Comm: AsyncComm}, 1, func(ctx *Ctx) {
		ctx.SRound(func() { ctx.SRound(func() {}) })
	})
	if err := sys.Run(); err == nil {
		t.Fatal("nested S-round did not error")
	}
}

func TestGroupReportMaxSumRule(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	g := sys.NewGroup("r5", Attrs{Comm: AsyncComm}, 3, func(ctx *Ctx) {
		ctx.IntOps(int64(100 * (ctx.Index() + 1)))
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r := g.Report()
	if r.T() != 300 { // max member time
		t.Fatalf("group T = %d, want 300", r.T())
	}
	if r.E() != 600 { // sum: (100+200+300)·w_int
		t.Fatalf("group E = %g, want 600", r.E())
	}
	if r.Power() != 2 {
		t.Fatalf("group P = %g, want 2", r.Power())
	}
	if len(r.PerProc) != 3 {
		t.Fatalf("per-proc entries %d", len(r.PerProc))
	}
}

func TestMessagingWithinGroup(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	attrs := Attrs{Dist: IntraProc, Comm: AsyncComm}
	g := sys.NewGroup("ring", attrs, 4, func(ctx *Ctx) {
		next := (ctx.Index() + 1) % ctx.GroupSize()
		ctx.SendTo(next, ctx.Index())
		m := ctx.Recv()
		want := (ctx.Index() + 3) % 4
		if m.Payload != want {
			t.Errorf("proc %d got %v, want %d", ctx.Index(), m.Payload, want)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r := g.Report()
	if r.Ops.Sends() != 4 || r.Ops.Recvs() != 4 {
		t.Fatalf("message counts sends=%d recvs=%d", r.Ops.Sends(), r.Ops.Recvs())
	}
	// intra_proc on one core → all messaging counted intra.
	if r.Ops.SendsInter != 0 {
		t.Fatalf("intra group sent %d inter messages", r.Ops.SendsInter)
	}
}

func TestSynchCommSendBlocksForDelivery(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	attrs := Attrs{Dist: InterProc, Comm: SynchComm}
	var senderDone sim.Time
	sys.NewGroup("sync", attrs, 2, func(ctx *Ctx) {
		if ctx.Index() == 0 {
			ctx.SendTo(1, "x")
			senderDone = ctx.Now()
		} else {
			ctx.Recv()
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if senderDone < machine.Niagara().Costs.LE {
		t.Fatalf("synch_comm send returned at %d before L_e", senderDone)
	}
}

func TestBroadcastAll(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	sys.NewGroup("bc", Attrs{Comm: AsyncComm}, 5, func(ctx *Ctx) {
		ctx.BroadcastAll(ctx.Index())
		got := ctx.RecvN(4)
		if len(got) != 4 {
			t.Errorf("proc %d received %d", ctx.Index(), len(got))
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitBarrier(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	var after []sim.Time
	sys.NewGroup("b", Attrs{Comm: AsyncComm}, 3, func(ctx *Ctx) {
		ctx.IntOps(int64(5 * (ctx.Index() + 1)))
		ctx.Barrier()
		after = append(after, ctx.Now())
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range after {
		if a != 15 {
			t.Fatalf("barrier release times %v", after)
		}
	}
}

func TestAtomicallyViaCtx(t *testing.T) {
	sys := NewSystem(machine.Niagara(), WithContentionManager(stm.Timestamp{}))
	v := stm.NewTVar(sys.TM, "v", int64(0))
	attrs := Attrs{Dist: IntraProc, Exec: TransExec, Comm: SynchComm}
	g := sys.NewGroup("tx", attrs, 8, func(ctx *Ctx) {
		_, err := ctx.Atomically(func(tx *stm.Tx) error {
			v.Modify(tx, func(x int64) int64 { return x + 1 })
			return nil
		})
		if err != nil {
			t.Errorf("tx: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 8 {
		t.Fatalf("counter %d, want 8", v.Value())
	}
	if g.Report().Ops.TxCommits != 8 {
		t.Fatalf("commits %d", g.Report().Ops.TxCommits)
	}
}

func TestNestedGroupAwait(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	var childDone, parentResumed sim.Time
	sys.NewGroup("parent", Attrs{}, 1, func(ctx *Ctx) {
		ctx.IntOps(5)
		child := sys.NewGroup("child", Attrs{Dist: InterProc, Comm: AsyncComm}, 3, func(c *Ctx) {
			c.IntOps(20)
			childDone = c.Now()
		})
		child.Await(ctx)
		parentResumed = ctx.Now()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if parentResumed < childDone || childDone == 0 {
		t.Fatalf("parent resumed at %d, child done at %d", parentResumed, childDone)
	}
}

func TestWithPlacementOverride(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	pl := Placement{7, 11}
	g := sys.NewGroupOpts("pl", Attrs{Comm: AsyncComm}, 2, func(ctx *Ctx) {}, WithPlacement(pl))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r := g.Report()
	if r.PerProc[0].Thread != 7 || r.PerProc[1].Thread != 11 {
		t.Fatalf("placement not honored: %v", r.PerProc)
	}
}

func TestWithPlacementSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad placement size")
		}
	}()
	sys := NewSystem(machine.Niagara())
	sys.NewGroupOpts("bad", Attrs{}, 3, func(ctx *Ctx) {}, WithPlacement(Placement{0}))
}

func TestPowerPerCore(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	attrs := Attrs{Dist: IntraProc, Comm: AsyncComm}
	g := sys.NewGroup("pw", attrs, 4, func(ctx *Ctx) {
		ctx.IntOps(100)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r := g.Report()
	pc := r.PowerPerCore(sys.M.Cfg, sys.M.Cfg.Costs)
	if len(pc) != 1 {
		t.Fatalf("intra group dissipates on %d cores", len(pc))
	}
	// 4 procs × 100 int ops × w_int=1 over T=100 → P = 4 on core 0.
	if pc[0] != 4 {
		t.Fatalf("core power %g, want 4", pc[0])
	}
}

func TestThreadsPerCoreUsed(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	g := sys.NewGroup("tc", Attrs{Dist: InterProc, Comm: AsyncComm}, 10, func(ctx *Ctx) {})
	counts := g.ThreadsPerCoreUsed()
	// 10 across 8 cores round-robin: two cores get 2, six get 1.
	twos, ones := 0, 0
	for _, n := range counts {
		switch n {
		case 2:
			twos++
		case 1:
			ones++
		default:
			t.Fatalf("unexpected per-core count %d", n)
		}
	}
	if twos != 2 || ones != 6 {
		t.Fatalf("distribution: twos=%d ones=%d", twos, ones)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReportTableRenders(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	g := sys.NewGroup("tbl", Attrs{Comm: AsyncComm}, 2, func(ctx *Ctx) { ctx.IntOps(1) })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	s := g.Report().Table()
	if !strings.Contains(s, "group tbl") || !strings.Contains(s, "thread") {
		t.Fatalf("table output:\n%s", s)
	}
}

func TestGroupAccessors(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	attrs := Attrs{Dist: InterProc, Exec: TransExec, Comm: AsyncComm}
	g := sys.NewGroup("acc", attrs, 3, func(ctx *Ctx) {
		if ctx.GroupSize() != 3 {
			t.Errorf("GroupSize = %d", ctx.GroupSize())
		}
		if ctx.Group().Name() != "acc" {
			t.Errorf("group name %q", ctx.Group().Name())
		}
		if ctx.System() != sys {
			t.Error("wrong system")
		}
	})
	if g.Attrs() != attrs || g.Size() != 3 || len(g.Ctxs()) != 3 || len(g.Placement()) != 3 {
		t.Fatal("group accessors wrong")
	}
	if len(sys.Groups()) != 1 {
		t.Fatal("system group registry wrong")
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousCoresScaleComputeTime(t *testing.T) {
	cfg := machine.BigLittle(1, 2, 0.5) // core 0 at 2×, others at 0.5×
	sys := NewSystem(cfg)
	var bigT, littleT sim.Time
	g := sys.NewGroupOpts("het", Attrs{Comm: AsyncComm}, 2, func(ctx *Ctx) {
		ctx.IntOps(100)
		if ctx.Index() == 0 {
			bigT = ctx.Now()
		} else {
			littleT = ctx.Now()
		}
	}, WithPlacement(Placement{0, 4})) // core 0 (big) and core 1 (little)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if bigT != 50 {
		t.Fatalf("big-core time %d, want 50", bigT)
	}
	if littleT != 200 {
		t.Fatalf("little-core time %d, want 200", littleT)
	}
	rep := g.Report()
	// Energy: big core pays 4× per op, little 0.25×.
	if rep.PerProc[0].EnergyE != 400 || rep.PerProc[1].EnergyE != 25 {
		t.Fatalf("energies %g/%g, want 400/25",
			rep.PerProc[0].EnergyE, rep.PerProc[1].EnergyE)
	}
}

func TestHeterogeneousPowerLawPerCore(t *testing.T) {
	// Per-core power of pure compute follows mult³.
	cfg := machine.BigLittle(1, 2, 1)
	sys := NewSystem(cfg)
	g := sys.NewGroupOpts("p", Attrs{Comm: AsyncComm}, 2, func(ctx *Ctx) {
		ctx.IntOps(64)
	}, WithPlacement(Placement{0, 4}))
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep := g.Report()
	big := rep.PerProc[0]
	little := rep.PerProc[1]
	bigP := big.EnergyE / float64(big.T())
	littleP := little.EnergyE / float64(little.T())
	if bigP != littleP*8 {
		t.Fatalf("power ratio %g, want 8 (2³)", bigP/littleP)
	}
}

func TestTracerRecordsExecution(t *testing.T) {
	tr := obs.NewTracer()
	sys := NewSystem(machine.Niagara(), WithObs(&obs.Observer{Trace: tr}))
	attrs := Attrs{Dist: IntraProc, Exec: TransExec, Comm: SynchComm}
	v := stm.NewTVar(sys.TM, "v", int64(0))
	sys.NewGroup("traced", attrs, 2, func(ctx *Ctx) {
		ctx.SUnit(func() {
			ctx.SRound(func() {
				ctx.IntOps(int64(3 * (ctx.Index() + 1)))
				ctx.SendTo(1-ctx.Index(), "hi")
			})
		})
		ctx.Recv()
		if _, err := ctx.Atomically(func(tx *stm.Tx) error {
			v.Modify(tx, func(x int64) int64 { return x + 1 })
			return nil
		}); err != nil {
			t.Error(err)
		}
		ctx.Trace("done")
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		counts[s.Cat+"/"+s.Name]++
	}
	for _, w := range []struct {
		span string
		n    int
	}{
		{"proc/traced/0", 1}, {"proc/traced/1", 1},
		{"unit/unit 0", 2}, {"round/round 0", 2},
		{"msg/send", 2}, {"msg/recv", 2},
		{"tx/tx", 2}, {"tx/commit", 2}, {"app/app", 2},
	} {
		if counts[w.span] != w.n {
			t.Fatalf("%s spans = %d, want %d (all: %v)", w.span, counts[w.span], w.n, counts)
		}
	}
	// Skewed work → the faster process waits at the round barrier.
	if counts["barrier/barrier"] == 0 {
		t.Fatal("no barrier wait recorded despite skew")
	}
	if tl := tr.Timeline(40); !strings.Contains(tl, "traced/0") || !strings.Contains(tl, "#") {
		t.Fatalf("timeline misses the traced rounds:\n%s", tl)
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	var span obs.SpanID = -1
	sys.NewGroup("plain", Attrs{Comm: AsyncComm}, 1, func(ctx *Ctx) {
		ctx.SRound(func() {
			ctx.IntOps(1)
			span = ctx.CurrentSpan()
		})
		ctx.Trace("ignored")
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Obs.Tracer().Enabled() || sys.Obs.Tracer().Len() != 0 {
		t.Fatal("span tracer enabled by default")
	}
	if span != 0 {
		t.Fatalf("untraced round opened span %d", span)
	}
}

func TestCtxAtomicallyWaitAndOrElse(t *testing.T) {
	sys := NewSystem(machine.Niagara())
	flag := stm.NewTVar(sys.TM, "flag", int64(0))
	alt := stm.NewTVar(sys.TM, "alt", int64(3))
	var got int64
	sys.NewGroup("waiter", Attrs{Comm: AsyncComm}, 1, func(ctx *Ctx) {
		if _, err := ctx.Atomically(func(tx *stm.Tx) error {
			if flag.Get(tx) == 0 {
				tx.Retry()
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
		if _, err := ctx.AtomicallyOrElse(
			func(tx *stm.Tx) error { tx.Retry(); return nil },
			func(tx *stm.Tx) error { got = alt.Get(tx); return nil },
		); err != nil {
			t.Error(err)
		}
	})
	sys.NewGroup("setter", Attrs{Comm: AsyncComm}, 1, func(ctx *Ctx) {
		ctx.IntOps(30)
		if _, err := ctx.Atomically(func(tx *stm.Tx) error {
			flag.Set(tx, 1)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("orelse fallback got %d", got)
	}
}
