package memory

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agenttest"
	"repro/internal/machine"
	"repro/internal/sim"
)

// rig builds a kernel + machine + memory for tests.
func rig(cfg machine.Config) (*sim.Kernel, *machine.Machine, *Memory) {
	k := sim.NewKernel()
	m := machine.New(k, cfg)
	return k, m, New(m)
}

func TestReadWriteRoundTrip(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[float64](mem, "x", Inter, 0, 8)
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		r.Write(a, 3, 2.5)
		if got := r.Read(a, 3); got != 2.5 {
			t.Errorf("read back %g, want 2.5", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyIntraVsInter(t *testing.T) {
	cfg := machine.Niagara() // EllA=1, EllE=4, GShA=1, GShE=2
	k, _, mem := rig(cfg)
	rIntra := NewRegion[int64](mem, "l1", Intra, 0, 4)
	rInter := NewRegion[int64](mem, "l2", Inter, 0, 4)

	var tIntra, tInter sim.Time
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0) // thread 0 lives on core 0
		start := p.Now()
		rIntra.Read(a, 0)
		tIntra = p.Now() - start
		start = p.Now()
		rInter.Read(a, 0)
		tInter = p.Now() - start
		if a.C.ReadsIntra != 1 || a.C.ReadsInter != 1 {
			t.Errorf("counters: intra=%d inter=%d", a.C.ReadsIntra, a.C.ReadsInter)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// intra: ℓ_a=1 + g_sh_a=1 → 2; inter: ℓ_e=4 + g_sh_e=2 → 6
	if tIntra != 2 {
		t.Errorf("intra access took %d ticks, want 2", tIntra)
	}
	if tInter != 6 {
		t.Errorf("inter access took %d ticks, want 6", tInter)
	}
}

func TestIntraRegionFromRemoteCoreChargesInter(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "l1-of-core0", Intra, 0, 1)
	k.Spawn("remote", func(p *sim.Proc) {
		a := agenttest.New(p, 4) // thread 4 = core 1
		r.Read(a, 0)
		if a.C.ReadsInter != 1 || a.C.ReadsIntra != 0 {
			t.Errorf("remote access counted intra=%d inter=%d", a.C.ReadsIntra, a.C.ReadsInter)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationQueuesConcurrentAccess(t *testing.T) {
	// Several processes hitting the same word at the same instant must
	// serialize; later ones accumulate QueueWait (the measured κ).
	cfg := machine.Niagara()
	k, _, mem := rig(cfg)
	mem.ServiceTime = 3
	r := NewRegion[int64](mem, "hot", Inter, 0, 1)
	const procs = 4
	var totalWait sim.Time
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *sim.Proc) {
			a := agenttest.New(p, 0)
			r.Read(a, 0)
			totalWait += a.C.QueueWait
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Service time 3: arrivals at 0 wait 0, 3, 6, 9 → total 18.
	if totalWait != 18 {
		t.Fatalf("total queue wait %d, want 18", totalWait)
	}
}

func TestDistinctWordsDoNotQueue(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	mem.ServiceTime = 5
	r := NewRegion[int64](mem, "striped", Inter, 0, 8)
	var wait sim.Time
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("p", func(p *sim.Proc) {
			a := agenttest.New(p, 0)
			r.Read(a, i)
			wait += a.C.QueueWait
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wait != 0 {
		t.Fatalf("striped accesses queued %d ticks, want 0", wait)
	}
}

func TestWriteCounters(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "w", Intra, 0, 2)
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		r.Write(a, 0, 1)
		r.Write(a, 1, 2)
		if a.C.WritesIntra != 2 {
			t.Errorf("WritesIntra = %d, want 2", a.C.WritesIntra)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rd, wr := r.Stats(); rd != 0 || wr != 2 {
		t.Fatalf("region stats reads=%d writes=%d", rd, wr)
	}
}

func TestRangeOps(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "v", Inter, 0, 6)
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		r.WriteRange(a, 1, []int64{10, 20, 30})
		got := make([]int64, 6)
		r.ReadRange(a, 0, got)
		want := []int64{0, 10, 20, 30, 0, 0}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("word %d = %d, want %d", i, got[i], want[i])
			}
		}
		if a.C.Reads() != 6 || a.C.Writes() != 3 {
			t.Errorf("counts reads=%d writes=%d", a.C.Reads(), a.C.Writes())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPeekPokeAreFree(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[float64](mem, "init", Inter, 0, 4)
	r.Poke(2, 9.5)
	if r.Peek(2) != 9.5 {
		t.Fatal("poke/peek round trip failed")
	}
	r.Fill(1.5)
	snap := r.Snapshot()
	for i, v := range snap {
		if v != 1.5 {
			t.Fatalf("snapshot[%d] = %g after Fill", i, v)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("cost-free ops advanced time to %d", k.Now())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "small", Inter, 0, 2)
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		r.Read(a, 2)
	})
	if err := k.Run(); err == nil {
		t.Fatal("out-of-range access did not error")
	}
}

func TestBadHomeCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad home core")
		}
	}()
	_, _, mem := rig(machine.Niagara())
	NewRegion[int64](mem, "bad", Intra, 99, 1)
}

func TestRegionsInventory(t *testing.T) {
	_, _, mem := rig(machine.Niagara())
	NewRegion[int64](mem, "a", Inter, 0, 3)
	NewRegion[float64](mem, "b", Intra, 1, 7)
	regs := mem.Regions()
	if len(regs) != 2 || regs[0] != "a[3]" || regs[1] != "b[7]" {
		t.Fatalf("regions = %v", regs)
	}
}

func TestScopeString(t *testing.T) {
	if Intra.String() != "intra" || Inter.String() != "inter" {
		t.Fatal("scope strings wrong")
	}
}

func TestLastWriterWins(t *testing.T) {
	// Two same-time writers to one word serialize; the later-serviced
	// one's value persists. Deterministic by spawn order.
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "race", Inter, 0, 1)
	for i := 0; i < 2; i++ {
		v := int64(i + 1)
		k.Spawn("w", func(p *sim.Proc) {
			a := agenttest.New(p, 0)
			r.Write(a, 0, v)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Peek(0); got != 2 {
		t.Fatalf("final value %d, want 2 (second writer serviced last)", got)
	}
}

func TestFetchAddNoLostUpdates(t *testing.T) {
	// Plain read-modify-write loses updates under contention (see
	// TestLastWriterWins); FetchAdd must not.
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "ctr", Inter, 0, 1)
	const procs, addsEach = 16, 8
	for i := 0; i < procs; i++ {
		k.Spawn("adder", func(p *sim.Proc) {
			a := agenttest.New(p, 0)
			for j := 0; j < addsEach; j++ {
				FetchAdd(r, a, 0, 1)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Peek(0); got != procs*addsEach {
		t.Fatalf("counter %d, want %d", got, procs*addsEach)
	}
}

func TestFetchAddReturnsPrevious(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "v", Inter, 0, 1)
	r.Poke(0, 10)
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		if old := FetchAdd(r, a, 0, 5); old != 10 {
			t.Errorf("old = %d, want 10", old)
		}
		if old := FetchAdd(r, a, 0, -3); old != 15 {
			t.Errorf("old = %d, want 15", old)
		}
		// One access charge, both read and write counted.
		if a.C.ReadsInter != 2 || a.C.WritesInter != 2 {
			t.Errorf("counters r=%d w=%d", a.C.ReadsInter, a.C.WritesInter)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Peek(0) != 12 {
		t.Fatalf("final %d, want 12", r.Peek(0))
	}
}

// A range access is charged as §3.1 charges a shared-memory S-round:
// ℓ once and g per word. On an idle region a lone reader of n words
// takes exactly ℓ_e + g_sh_e·n and queues for nothing.
func TestRangeChargesLatencyOnce(t *testing.T) {
	cfg := machine.Niagara() // EllE=4, GShE=2
	k, _, mem := rig(cfg)
	const n = 16
	r := NewRegion[int64](mem, "v", Inter, 0, n)
	var took sim.Time
	var a *agenttest.Agent
	k.Spawn("p", func(p *sim.Proc) {
		a = agenttest.New(p, 0)
		buf := make([]int64, n)
		start := p.Now()
		r.ReadRange(a, 0, buf)
		took = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c := cfg.Costs
	if want := c.EllE + sim.Time(c.GShE*n); took != want {
		t.Errorf("range of %d words took %d ticks, want ℓ_e + g_sh_e·n = %d", n, took, want)
	}
	if a.C.ReadsInter != n || a.C.QueueWait != 0 {
		t.Errorf("reads=%d queue wait=%d, want %d and 0", a.C.ReadsInter, a.C.QueueWait, n)
	}
}

// Same-instant ranges over the same words still serialize word by
// word: the k-th arrival finds every word k slots deep and holds that
// wait once, not once per word.
func TestRangeQueuesEachWordOnce(t *testing.T) {
	cfg := machine.Niagara()
	k, _, mem := rig(cfg)
	const n, procs = 8, 4
	r := NewRegion[int64](mem, "hot", Inter, 0, n)
	waits := make([]sim.Time, procs)
	done := make([]sim.Time, procs)
	for i := 0; i < procs; i++ {
		k.Spawn("p", func(p *sim.Proc) {
			a := agenttest.New(p, 0)
			r.ReadRange(a, 0, make([]int64, n))
			waits[i], done[i] = a.C.QueueWait, p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c, st := cfg.Costs, mem.ServiceTime
	var sum sim.Time
	for i := range waits {
		kst := sim.Time(i) * st
		if waits[i] != kst {
			t.Errorf("process %d queue wait %d, want %d", i, waits[i], kst)
		}
		if want := kst + c.EllE + sim.Time(c.GShE*n); done[i] != want {
			t.Errorf("process %d done at %d, want %d", i, done[i], want)
		}
		sum += kst
	}
	rs := mem.RegionStats()[0]
	if rs.StallTicks != sum || rs.Stalled != n*(procs-1) || rs.MaxQueueDepth != procs-1 {
		t.Errorf("stall ticks=%d stalled=%d depth=%d, want %d, %d, %d",
			rs.StallTicks, rs.Stalled, rs.MaxQueueDepth, sum, n*(procs-1), procs-1)
	}
}

type probeRec struct {
	i    int
	kind AccessKind
	at   sim.Time
}

type recProbe struct{ got []probeRec }

func (pr *recProbe) Access(_ string, _, i int, p *sim.Proc, kind AccessKind) {
	pr.got = append(pr.got, probeRec{i, kind, p.Now()})
}

// The probe sees every word of a range once, with the access's kind,
// at the instant the access completes.
func TestRangeProbeSeesEachWordAtCompletion(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	pr := &recProbe{}
	mem.SetProbe(pr)
	r := NewRegion[int64](mem, "v", Inter, 0, 8)
	var wrote, read sim.Time
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		r.WriteRange(a, 2, []int64{1, 2, 3})
		wrote = p.Now()
		r.ReadRange(a, 0, make([]int64, 4))
		read = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var want []probeRec
	for i := 2; i < 5; i++ {
		want = append(want, probeRec{i, AccessWrite, wrote})
	}
	for i := 0; i < 4; i++ {
		want = append(want, probeRec{i, AccessRead, read})
	}
	if len(pr.got) != len(want) {
		t.Fatalf("probe saw %v, want %v", pr.got, want)
	}
	for j := range want {
		if pr.got[j] != want[j] {
			t.Errorf("probe call %d = %+v, want %+v", j, pr.got[j], want[j])
		}
	}
}

// An empty range charges and counts nothing; a range past the end
// panics with the region's name before it reserves any slot.
func TestRangeEdges(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "short", Inter, 0, 4)
	var msg string
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		r.ReadRange(a, 4, nil)
		r.WriteRange(a, 0, nil)
		if p.Now() != 0 || a.C.Reads() != 0 || a.C.Writes() != 0 {
			t.Errorf("empty ranges: now=%d reads=%d writes=%d", p.Now(), a.C.Reads(), a.C.Writes())
		}
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			r.ReadRange(a, 2, make([]int64, 3))
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "short") {
		t.Errorf("past-the-end range: panic %q does not name the region", msg)
	}
	for i, nf := range r.nextFree {
		if nf != 0 {
			t.Errorf("word %d reserved until %d by a rejected range", i, nf)
		}
	}
}

// A range read fills the caller's buffer: it allocates nothing.
func TestReadRangeAllocationFree(t *testing.T) {
	k, _, mem := rig(machine.Niagara())
	r := NewRegion[int64](mem, "v", Inter, 0, 64)
	var allocs float64
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		buf := make([]int64, 64)
		r.ReadRange(a, 0, buf) // warm up the kernel's event buffer
		allocs = testing.AllocsPerRun(100, func() { r.ReadRange(a, 0, buf) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("ReadRange allocates %.2f/run, want 0", allocs)
	}
}
