// Package machine models the CMP/CMT target machines of the STAMP paper:
// chips containing processors (cores), each processor running several
// hardware threads (Sun Niagara being the motivating example, Figure 1).
//
// A machine is pure configuration — topology plus the paper's cost
// parameter table (§3.1) and a dynamic power model (§2.1, P ∝ f³) — and
// a thread-occupancy map. All time charging happens in higher layers
// that consult the table.
package machine

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// ThreadID identifies one hardware thread slot, numbered
// chip-major/core-major: id = (chip*CoresPerChip + core)*ThreadsPerCore + thread.
type ThreadID int

// Config describes a CMP/CMT machine.
type Config struct {
	Name           string
	Chips          int // number of CMP chips
	CoresPerChip   int // processors per chip
	ThreadsPerCore int // hardware threads per processor (CMT)

	// ChipsPerCluster groups chips into clusters, extending the flat
	// chips×cores×threads topology to the hierarchical machines of
	// "A Model for Communication in Clusters of Multi-core Machines":
	// message latency and bandwidth degrade in tiers (core, chip,
	// cluster, machine — see CostTable.LX/LC). 0 means one flat cluster,
	// preserving the original model exactly.
	ChipsPerCluster int

	// FreqMult is the clock multiplier relative to the nominal design
	// point. Local-op latencies scale as 1/FreqMult, per-op energies as
	// FreqMult², so power scales as FreqMult³ (§2.1).
	FreqMult float64

	// CoreFreq optionally gives each processor its own additional
	// clock multiplier (heterogeneous machines); nil means homogeneous.
	// Use WithCoreFreq to set it with validation.
	CoreFreq []float64

	Costs CostTable

	// PowerLimitPerCore is the power envelope of one processor in
	// energy units per tick (0 = unlimited). The paper's Jacobi example
	// sets this to 3(x+y)·w_int.
	PowerLimitPerCore float64
	// PowerLimitPerChip is the envelope of a whole chip (0 = unlimited).
	PowerLimitPerChip float64
}

// CostTable carries the STAMP model's machine parameters (§3.1).
// Times are in ticks; energies in abstract energy units; bandwidth
// factors g are ticks charged per communication operation.
type CostTable struct {
	// Local computation: ticks per floating-point / integer operation.
	TFp, TInt sim.Time

	// Shared-memory access latency upper bounds ℓ_a (intra-processor,
	// e.g. shared L1) and ℓ_e (inter-processor, e.g. shared L2).
	EllA, EllE sim.Time
	// Shared-memory bandwidth factors g_sh_a, g_sh_e.
	GShA, GShE float64

	// Message delays L_a (intra-processor) and L_e (inter-processor).
	LA, LE sim.Time
	// Message-passing bandwidth factors g_mp_a, g_mp_e.
	GMpA, GMpE float64

	// Hierarchical message tier for clustered machines (Config.
	// ChipsPerCluster): LX/GMpX are the chip-to-chip delay and
	// bandwidth factor within a cluster, LC/GMpC the cluster-to-cluster
	// ones. Zero values fall back down the hierarchy (LX→LE, LC→LX→LE,
	// g alike), so flat cost tables — and every golden produced with
	// them — are untouched.
	LX, LC     sim.Time
	GMpX, GMpC float64
	// GMpWord is the extra per-word cost of long messages (the LogGP
	// "big gap" G); 0 means message size is ignored.
	GMpWord float64

	// Per-operation energies: w_fp, w_int, w_dr, w_dw, w_ms, w_mr.
	// The paper assumes intra/inter energy differences are negligible,
	// so there is one value per operation class.
	WFp, WInt, WRead, WWrite, WSend, WRecv float64
}

// DefaultCosts returns the cost table used throughout the test suite and
// benchmarks. It satisfies the paper's §4 assumptions: w_fp = x·w_int and
// w_ms = w_mr = y·w_int with x, y ≥ 2, and the Jacobi lower bound L ≥ 5.
func DefaultCosts() CostTable {
	return CostTable{
		TFp: 1, TInt: 1,
		EllA: 1, EllE: 4,
		GShA: 1, GShE: 2,
		LA: 5, LE: 20,
		GMpA: 1, GMpE: 2,
		WFp: 2, WInt: 1, WRead: 2, WWrite: 2, WSend: 3, WRecv: 3,
	}
}

// EffLX returns the effective chip-to-chip message delay: LX, falling
// back to the flat inter-processor delay LE when unset.
func (c CostTable) EffLX() sim.Time {
	if c.LX > 0 {
		return c.LX
	}
	return c.LE
}

// EffLC returns the effective cluster-to-cluster message delay: LC,
// falling back to EffLX when unset.
func (c CostTable) EffLC() sim.Time {
	if c.LC > 0 {
		return c.LC
	}
	return c.EffLX()
}

// EffGMpX returns the effective chip-to-chip bandwidth factor.
func (c CostTable) EffGMpX() float64 {
	if c.GMpX > 0 {
		return c.GMpX
	}
	return c.GMpE
}

// EffGMpC returns the effective cluster-to-cluster bandwidth factor.
func (c CostTable) EffGMpC() float64 {
	if c.GMpC > 0 {
		return c.GMpC
	}
	return c.EffGMpX()
}

// Niagara returns the Sun Niagara configuration of Figure 1: one chip
// with 8 simple cores of 4 hardware threads each (32 threads total).
func Niagara() Config {
	return Config{
		Name:           "niagara",
		Chips:          1,
		CoresPerChip:   8,
		ThreadsPerCore: 4,
		FreqMult:       1,
		Costs:          DefaultCosts(),
	}
}

// Generic returns a small multi-chip CMP system: 4 chips × 4 cores × 2
// threads (32 threads total), for experiments that need inter-chip
// distribution.
func Generic() Config {
	return Config{
		Name:           "generic-cmp",
		Chips:          4,
		CoresPerChip:   4,
		ThreadsPerCore: 2,
		FreqMult:       1,
		Costs:          DefaultCosts(),
	}
}

// Cluster returns a hierarchical machine of clusters×chipsPerCluster
// chips (cores×threads each), with a tiered message cost table:
// crossing a chip boundary within a cluster costs LX=2·LE with a
// heavier bandwidth factor, crossing a cluster boundary costs LC=5·LE.
// The tier ratios follow the latency hierarchies measured in "A Model
// for Communication in Clusters of Multi-core Machines" (PAPERS.md).
func Cluster(clusters, chipsPerCluster, cores, threads int) Config {
	costs := DefaultCosts()
	costs.LX = 2 * costs.LE
	costs.GMpX = 3
	costs.LC = 5 * costs.LE
	costs.GMpC = 4
	return Config{
		Name:            fmt.Sprintf("cluster-%dx%dx%dx%d", clusters, chipsPerCluster, cores, threads),
		Chips:           clusters * chipsPerCluster,
		CoresPerChip:    cores,
		ThreadsPerCore:  threads,
		ChipsPerCluster: chipsPerCluster,
		FreqMult:        1,
		Costs:           costs,
	}
}

// SingleCore returns a 1×1×1 machine for sequential baselines.
func SingleCore() Config {
	return Config{
		Name:           "single-core",
		Chips:          1,
		CoresPerChip:   1,
		ThreadsPerCore: 1,
		FreqMult:       1,
		Costs:          DefaultCosts(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Chips < 1 || c.CoresPerChip < 1 || c.ThreadsPerCore < 1:
		return fmt.Errorf("machine: topology must be positive, got %d×%d×%d",
			c.Chips, c.CoresPerChip, c.ThreadsPerCore)
	case c.FreqMult <= 0:
		return fmt.Errorf("machine: FreqMult must be positive, got %g", c.FreqMult)
	case c.Costs.TFp < 1 || c.Costs.TInt < 1:
		return fmt.Errorf("machine: op latencies must be ≥ 1 tick")
	case c.Costs.GShA < 0 || c.Costs.GShE < 0 || c.Costs.GMpA < 0 || c.Costs.GMpE < 0:
		return fmt.Errorf("machine: bandwidth factors must be non-negative")
	case c.CoreFreq != nil && len(c.CoreFreq) != c.NumCores():
		return fmt.Errorf("machine: CoreFreq has %d entries for %d cores", len(c.CoreFreq), c.NumCores())
	case c.ChipsPerCluster < 0:
		return fmt.Errorf("machine: ChipsPerCluster must be non-negative, got %d", c.ChipsPerCluster)
	case c.Costs.LX < 0 || c.Costs.LC < 0:
		return fmt.Errorf("machine: tiered message delays must be non-negative")
	case c.Costs.GMpX < 0 || c.Costs.GMpC < 0:
		return fmt.Errorf("machine: tiered bandwidth factors must be non-negative")
	}
	for i, f := range c.CoreFreq {
		if f <= 0 {
			return fmt.Errorf("machine: CoreFreq[%d] = %g must be positive", i, f)
		}
	}
	return nil
}

// NumCores returns the total processor count.
func (c Config) NumCores() int { return c.Chips * c.CoresPerChip }

// NumThreads returns the total hardware thread count.
func (c Config) NumThreads() int { return c.NumCores() * c.ThreadsPerCore }

// Place decomposes a ThreadID into (chip, core-within-chip, thread-within-core).
func (c Config) Place(t ThreadID) (chip, core, thread int) {
	id := int(t)
	if id < 0 || id >= c.NumThreads() {
		panic(fmt.Sprintf("machine: thread id %d out of range [0,%d)", id, c.NumThreads()))
	}
	thread = id % c.ThreadsPerCore
	id /= c.ThreadsPerCore
	core = id % c.CoresPerChip
	chip = id / c.CoresPerChip
	return chip, core, thread
}

// CoreOf returns the global core index of a thread.
func (c Config) CoreOf(t ThreadID) int { return int(t) / c.ThreadsPerCore }

// ChipOf returns the chip index of a thread.
func (c Config) ChipOf(t ThreadID) int {
	return int(t) / (c.ThreadsPerCore * c.CoresPerChip)
}

// SameCore reports whether two threads are intra-processor in the
// paper's sense (hardware threads of the same core).
func (c Config) SameCore(a, b ThreadID) bool { return c.CoreOf(a) == c.CoreOf(b) }

// SameChip reports whether two threads share a chip.
func (c Config) SameChip(a, b ThreadID) bool { return c.ChipOf(a) == c.ChipOf(b) }

// NumClusters returns the cluster count (1 for flat machines).
func (c Config) NumClusters() int {
	if c.ChipsPerCluster <= 0 || c.ChipsPerCluster >= c.Chips {
		return 1
	}
	return (c.Chips + c.ChipsPerCluster - 1) / c.ChipsPerCluster
}

// ClusterOf returns the cluster index of a thread (0 on flat machines).
func (c Config) ClusterOf(t ThreadID) int {
	if c.ChipsPerCluster <= 0 {
		return 0
	}
	return c.ChipOf(t) / c.ChipsPerCluster
}

// SameCluster reports whether two threads share a cluster.
func (c Config) SameCluster(a, b ThreadID) bool { return c.ClusterOf(a) == c.ClusterOf(b) }

// MsgLink returns the message delay and bandwidth factor between two
// threads under the hierarchical tier: same core → (LA, GMpA), same
// chip → (LE, GMpE), same cluster → (LX, GMpX), else → (LC, GMpC),
// with unset upper tiers falling back down the hierarchy. intra
// reports the paper's intra-processor case (same core). On flat
// machines this reproduces the original two-tier costs exactly.
func (c Config) MsgLink(a, b ThreadID) (delay sim.Time, g float64, intra bool) {
	switch {
	case c.SameCore(a, b):
		return c.Costs.LA, c.Costs.GMpA, true
	case c.SameChip(a, b):
		return c.Costs.LE, c.Costs.GMpE, false
	case c.SameCluster(a, b):
		return c.Costs.EffLX(), c.Costs.EffGMpX(), false
	default:
		return c.Costs.EffLC(), c.Costs.EffGMpC(), false
	}
}

// AtFrequency returns a copy of the config running at multiplier mult of
// the nominal clock. Local-op latencies are scaled by 1/mult (rounded up
// to ≥ 1 tick) and per-op energies by mult², implementing the dynamic
// power law P ∝ f³ of §2.1. Communication latencies are left unscaled:
// they are dominated by wires and memory, not core clock.
func (c Config) AtFrequency(mult float64) Config {
	if mult <= 0 {
		panic("machine: frequency multiplier must be positive")
	}
	s := c
	s.FreqMult = c.FreqMult * mult
	scaleT := func(t sim.Time) sim.Time {
		v := sim.Time(float64(t)/mult + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	s.Costs.TFp = scaleT(c.Costs.TFp)
	s.Costs.TInt = scaleT(c.Costs.TInt)
	e2 := mult * mult
	s.Costs.WFp *= e2
	s.Costs.WInt *= e2
	s.Costs.WRead *= e2
	s.Costs.WWrite *= e2
	s.Costs.WSend *= e2
	s.Costs.WRecv *= e2
	s.Name = fmt.Sprintf("%s@%.2gx", c.Name, s.FreqMult)
	return s
}

// Describe renders the topology as ASCII, one chip per block — the
// textual stand-in for the paper's Figure 1.
func (c Config) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %q: %d chip(s) × %d core(s) × %d thread(s) = %d hardware threads\n",
		c.Name, c.Chips, c.CoresPerChip, c.ThreadsPerCore, c.NumThreads())
	if c.NumClusters() > 1 {
		fmt.Fprintf(&b, "%d cluster(s) of %d chip(s); message tiers L=%d/%d/%d/%d\n",
			c.NumClusters(), c.ChipsPerCluster,
			c.Costs.LA, c.Costs.LE, c.Costs.EffLX(), c.Costs.EffLC())
	}
	for chip := 0; chip < c.Chips; chip++ {
		if c.NumClusters() > 1 && chip%c.ChipsPerCluster == 0 {
			fmt.Fprintf(&b, "cluster %d\n", chip/c.ChipsPerCluster)
		}
		fmt.Fprintf(&b, "chip %d\n", chip)
		for core := 0; core < c.CoresPerChip; core++ {
			fmt.Fprintf(&b, "  core %d: threads", core)
			for th := 0; th < c.ThreadsPerCore; th++ {
				id := (chip*c.CoresPerChip+core)*c.ThreadsPerCore + th
				fmt.Fprintf(&b, " T%d", id)
			}
			b.WriteString("\n")
		}
		b.WriteString("  shared L2 / crossbar\n")
	}
	return b.String()
}

// Machine binds a Config to a simulation kernel and tracks which
// hardware threads are occupied by simulated processes.
type Machine struct {
	K   *sim.Kernel
	Cfg Config

	occupancy []int // processes bound per hardware thread
}

// New creates a machine on kernel k. It panics on an invalid config.
func New(k *sim.Kernel, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{K: k, Cfg: cfg, occupancy: make([]int, cfg.NumThreads())}
}

// Bind records that one more process occupies hardware thread t.
func (m *Machine) Bind(t ThreadID) { m.occupancy[t]++ }

// Release undoes a Bind.
func (m *Machine) Release(t ThreadID) {
	if m.occupancy[t] == 0 {
		panic(fmt.Sprintf("machine: release of unoccupied thread %d", t))
	}
	m.occupancy[t]--
}

// Occupancy returns the number of processes bound to thread t.
func (m *Machine) Occupancy(t ThreadID) int { return m.occupancy[t] }

// CoreOccupancy returns the total processes bound to threads of core.
func (m *Machine) CoreOccupancy(core int) int {
	n := 0
	for th := 0; th < m.Cfg.ThreadsPerCore; th++ {
		n += m.occupancy[core*m.Cfg.ThreadsPerCore+th]
	}
	return n
}

// FreeThreadOnCore returns an unoccupied hardware thread on the given
// core, or -1 if all are taken.
func (m *Machine) FreeThreadOnCore(core int) ThreadID {
	for th := 0; th < m.Cfg.ThreadsPerCore; th++ {
		id := ThreadID(core*m.Cfg.ThreadsPerCore + th)
		if m.occupancy[id] == 0 {
			return id
		}
	}
	return -1
}
