package machine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNiagaraTopologyMatchesFigure1(t *testing.T) {
	cfg := Niagara()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumCores() != 8 {
		t.Fatalf("niagara cores = %d, want 8", cfg.NumCores())
	}
	if cfg.NumThreads() != 32 {
		t.Fatalf("niagara threads = %d, want 32", cfg.NumThreads())
	}
}

func TestPlaceRoundTrip(t *testing.T) {
	for _, cfg := range []Config{Niagara(), Generic(), SingleCore()} {
		for id := 0; id < cfg.NumThreads(); id++ {
			chip, core, thread := cfg.Place(ThreadID(id))
			back := (chip*cfg.CoresPerChip+core)*cfg.ThreadsPerCore + thread
			if back != id {
				t.Fatalf("%s: Place(%d) = (%d,%d,%d) does not round-trip (got %d)",
					cfg.Name, id, chip, core, thread, back)
			}
			if got := cfg.CoreOf(ThreadID(id)); got != chip*cfg.CoresPerChip+core {
				t.Fatalf("%s: CoreOf(%d) = %d", cfg.Name, id, got)
			}
			if got := cfg.ChipOf(ThreadID(id)); got != chip {
				t.Fatalf("%s: ChipOf(%d) = %d, want %d", cfg.Name, id, got, chip)
			}
		}
	}
}

func TestPlaceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range thread id")
		}
	}()
	Niagara().Place(ThreadID(32))
}

func TestSameCoreSameChip(t *testing.T) {
	cfg := Niagara() // 4 threads per core
	if !cfg.SameCore(0, 3) {
		t.Error("threads 0 and 3 should share a core")
	}
	if cfg.SameCore(3, 4) {
		t.Error("threads 3 and 4 should not share a core")
	}
	if !cfg.SameChip(0, 31) {
		t.Error("single-chip niagara: all threads share the chip")
	}
	g := Generic() // 4 chips × 4 cores × 2 threads
	if g.SameChip(0, 8) {
		t.Error("generic: threads 0 and 8 are on different chips")
	}
	if !g.SameChip(0, 7) {
		t.Error("generic: threads 0 and 7 share chip 0")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Name: "no-chips", Chips: 0, CoresPerChip: 1, ThreadsPerCore: 1, FreqMult: 1, Costs: DefaultCosts()},
		{Name: "no-freq", Chips: 1, CoresPerChip: 1, ThreadsPerCore: 1, FreqMult: 0, Costs: DefaultCosts()},
		func() Config {
			c := SingleCore()
			c.Costs.TInt = 0
			return c
		}(),
		func() Config {
			c := SingleCore()
			c.Costs.GShA = -1
			return c
		}(),
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q validated but should not", c.Name)
		}
	}
}

func TestAtFrequencyPowerLaw(t *testing.T) {
	base := Niagara()
	half := base.AtFrequency(0.5)
	// perf ∝ f: ops take twice as long
	if half.Costs.TInt != 2*base.Costs.TInt || half.Costs.TFp != 2*base.Costs.TFp {
		t.Fatalf("half-freq latencies: TInt=%d TFp=%d", half.Costs.TInt, half.Costs.TFp)
	}
	// energy per op ∝ f²
	if half.Costs.WInt != base.Costs.WInt/4 {
		t.Fatalf("half-freq WInt = %g, want %g", half.Costs.WInt, base.Costs.WInt/4)
	}
	// power per op stream ∝ f³: (w/4) / (2t) = (w/t)/8
	basePower := base.Costs.WInt / float64(base.Costs.TInt)
	halfPower := half.Costs.WInt / float64(half.Costs.TInt)
	if want := basePower / 8; halfPower != want {
		t.Fatalf("half-freq power %g, want %g (f³ law)", halfPower, want)
	}
}

func TestAtFrequencyLatencyNeverBelowOneTick(t *testing.T) {
	cfg := Niagara().AtFrequency(10)
	if cfg.Costs.TInt < 1 || cfg.Costs.TFp < 1 {
		t.Fatalf("latencies dropped below one tick: %d %d", cfg.Costs.TInt, cfg.Costs.TFp)
	}
}

func TestAtFrequencyComposes(t *testing.T) {
	cfg := Niagara().AtFrequency(0.5).AtFrequency(2)
	if cfg.FreqMult != 1 {
		t.Fatalf("composed FreqMult = %g, want 1", cfg.FreqMult)
	}
}

func TestDescribeMentionsEveryCore(t *testing.T) {
	s := Niagara().Describe()
	for core := 0; core < 8; core++ {
		if !strings.Contains(s, "core") {
			t.Fatalf("describe missing cores:\n%s", s)
		}
	}
	if !strings.Contains(s, "T31") {
		t.Fatalf("describe missing last thread:\n%s", s)
	}
	if !strings.Contains(s, "32 hardware threads") {
		t.Fatalf("describe missing thread total:\n%s", s)
	}
}

func TestMachineOccupancy(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, Niagara())
	m.Bind(0)
	m.Bind(1)
	m.Bind(1)
	if m.Occupancy(1) != 2 {
		t.Fatalf("occupancy(1) = %d, want 2", m.Occupancy(1))
	}
	if m.CoreOccupancy(0) != 3 {
		t.Fatalf("core occupancy = %d, want 3", m.CoreOccupancy(0))
	}
	if got := m.FreeThreadOnCore(0); got != 2 {
		t.Fatalf("free thread = %d, want 2", got)
	}
	m.Release(1)
	if m.Occupancy(1) != 1 {
		t.Fatalf("occupancy(1) after release = %d", m.Occupancy(1))
	}
	// Fill core 1 completely.
	for th := 4; th < 8; th++ {
		m.Bind(ThreadID(th))
	}
	if got := m.FreeThreadOnCore(1); got != -1 {
		t.Fatalf("full core reported free thread %d", got)
	}
}

func TestReleaseUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release of unoccupied thread did not panic")
		}
	}()
	m := New(sim.NewKernel(), Niagara())
	m.Release(5)
}

func TestPlacePropertyQuick(t *testing.T) {
	cfg := Generic()
	f := func(raw uint16) bool {
		id := int(raw) % cfg.NumThreads()
		chip, core, thread := cfg.Place(ThreadID(id))
		return chip >= 0 && chip < cfg.Chips &&
			core >= 0 && core < cfg.CoresPerChip &&
			thread >= 0 && thread < cfg.ThreadsPerCore
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterTopology(t *testing.T) {
	cfg := Cluster(2, 2, 2, 2) // 2 clusters × 2 chips × 2 cores × 2 threads
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Chips != 4 || cfg.NumThreads() != 16 {
		t.Fatalf("Cluster(2,2,2,2): chips=%d threads=%d", cfg.Chips, cfg.NumThreads())
	}
	if got := cfg.NumClusters(); got != 2 {
		t.Fatalf("NumClusters = %d, want 2", got)
	}
	// Threads are chip-major: chip = t/4, cluster = chip/2.
	if cfg.ClusterOf(0) != 0 || cfg.ClusterOf(7) != 0 || cfg.ClusterOf(8) != 1 || cfg.ClusterOf(15) != 1 {
		t.Fatalf("ClusterOf: %d %d %d %d", cfg.ClusterOf(0), cfg.ClusterOf(7), cfg.ClusterOf(8), cfg.ClusterOf(15))
	}
	if !cfg.SameCluster(0, 7) || cfg.SameCluster(7, 8) {
		t.Fatal("SameCluster boundary wrong")
	}
	// Flat configs stay one cluster.
	if got := Generic().NumClusters(); got != 1 {
		t.Fatalf("Generic NumClusters = %d, want 1", got)
	}
	if Generic().ClusterOf(30) != 0 {
		t.Fatal("flat ClusterOf != 0")
	}
}

func TestMsgLinkTiers(t *testing.T) {
	cfg := Cluster(2, 2, 2, 2)
	cases := []struct {
		a, b  ThreadID
		delay sim.Time
		g     float64
		intra bool
		tier  string
	}{
		{0, 1, cfg.Costs.LA, cfg.Costs.GMpA, true, "same core"},
		{0, 2, cfg.Costs.LE, cfg.Costs.GMpE, false, "same chip"},
		{0, 4, cfg.Costs.LX, cfg.Costs.GMpX, false, "same cluster"},
		{0, 8, cfg.Costs.LC, cfg.Costs.GMpC, false, "cross cluster"},
	}
	for _, c := range cases {
		d, g, intra := cfg.MsgLink(c.a, c.b)
		if d != c.delay || g != c.g || intra != c.intra {
			t.Errorf("%s: MsgLink(%d,%d) = (%d,%v,%v), want (%d,%v,%v)",
				c.tier, c.a, c.b, d, g, intra, c.delay, c.g, c.intra)
		}
	}
}

func TestMsgLinkFlatFallback(t *testing.T) {
	// On a flat config the upper tiers fall back to LE/GMpE, so MsgLink
	// reproduces the original two-tier behaviour exactly.
	cfg := Generic()
	d, g, intra := cfg.MsgLink(0, ThreadID(cfg.NumThreads()-1))
	if d != cfg.Costs.LE || g != cfg.Costs.GMpE || intra {
		t.Fatalf("flat cross-chip MsgLink = (%d,%v,%v), want (%d,%v,false)", d, g, intra, cfg.Costs.LE, cfg.Costs.GMpE)
	}
	d, g, intra = cfg.MsgLink(0, 1)
	if d != cfg.Costs.LA || g != cfg.Costs.GMpA || !intra {
		t.Fatalf("flat same-core MsgLink = (%d,%v,%v)", d, g, intra)
	}
}

func TestEffFallbackChain(t *testing.T) {
	var ct CostTable
	ct.LE = 20
	ct.GMpE = 2
	if ct.EffLX() != 20 || ct.EffLC() != 20 || ct.EffGMpX() != 2 || ct.EffGMpC() != 2 {
		t.Fatal("unset tiers must fall back to LE/GMpE")
	}
	ct.LX = 40
	ct.GMpX = 3
	if ct.EffLC() != 40 || ct.EffGMpC() != 3 {
		t.Fatal("unset LC must fall back to LX")
	}
	ct.LC = 100
	ct.GMpC = 4
	if ct.EffLC() != 100 || ct.EffGMpC() != 4 {
		t.Fatal("set LC must win")
	}
}

func TestPreset(t *testing.T) {
	for name, want := range map[string]string{"niagara": "niagara", "generic": "generic-cmp", "single": "single-core"} {
		cfg, err := Preset(name)
		if err != nil || cfg.Name != want {
			t.Fatalf("Preset(%q) = %q, %v; want %q", name, cfg.Name, err, want)
		}
	}
	if _, err := Preset("cray"); err == nil || !strings.Contains(err.Error(), "niagara | generic | single") {
		t.Fatalf("unknown preset error %v does not list the presets", err)
	}
}
