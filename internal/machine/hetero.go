package machine

import "fmt"

// Heterogeneity support: the paper motivates models "general enough to
// embrace new emerging paradigms such as adaptive and heterogeneous
// computations" (§1) and notes that asynchronous STAMP algorithms can
// run "even when the processors' available power and processing speeds
// vary" (§4). CoreFreq gives each processor its own clock multiplier:
// local operations on a core with multiplier s run s× faster and cost
// s² more energy each (the same f³ power law AtFrequency implements
// globally).

// WithCoreFreq returns a copy of the config with per-core frequency
// multipliers. freq must have NumCores entries, all positive.
func (c Config) WithCoreFreq(freq []float64) Config {
	if len(freq) != c.NumCores() {
		panic(fmt.Sprintf("machine: CoreFreq needs %d entries, got %d", c.NumCores(), len(freq)))
	}
	for i, f := range freq {
		if f <= 0 {
			panic(fmt.Sprintf("machine: CoreFreq[%d] = %g must be positive", i, f))
		}
	}
	s := c
	s.CoreFreq = append([]float64(nil), freq...)
	return s
}

// SetCoreMult changes one core's frequency multiplier on a live
// machine — the DVFS actuation behind the adaptive controller's
// throttle response (internal/adapt). Time already charged keeps the
// cost computed at charge time; only later operations on the core see
// the new clock, so callers must apply it at a quiescent instant (a
// barrier generation) for the accounting to stay deterministic. Note that the energy report applies one
// per-core scale to a member's whole op history (energy.EnergyScaled),
// so a mid-run clock change coarsens E on the throttled core — the
// same whole-run granularity Config.AtFrequency has always had. The
// multiplier must be positive.
func (m *Machine) SetCoreMult(core int, mult float64) {
	if core < 0 || core >= m.Cfg.NumCores() {
		panic(fmt.Sprintf("machine: SetCoreMult core %d out of range", core))
	}
	if mult <= 0 {
		panic(fmt.Sprintf("machine: SetCoreMult(%d, %g): multiplier must be positive", core, mult))
	}
	if m.Cfg.CoreFreq == nil {
		f := make([]float64, m.Cfg.NumCores())
		for i := range f {
			f[i] = 1
		}
		m.Cfg.CoreFreq = f
	}
	m.Cfg.CoreFreq[core] = mult
}

// BigLittle returns a heterogeneous single-chip machine in the
// big.LITTLE style: nBig fast cores at bigMult and the rest at
// littleMult, with Niagara-like threading.
func BigLittle(nBig int, bigMult, littleMult float64) Config {
	cfg := Niagara()
	cfg.Name = fmt.Sprintf("biglittle-%dx%g+%dx%g", nBig, bigMult, cfg.CoresPerChip-nBig, littleMult)
	freq := make([]float64, cfg.NumCores())
	for i := range freq {
		if i < nBig {
			freq[i] = bigMult
		} else {
			freq[i] = littleMult
		}
	}
	return cfg.WithCoreFreq(freq)
}

// CoreMult returns the frequency multiplier of a core (1 when the
// machine is homogeneous).
func (c Config) CoreMult(core int) float64 {
	if c.CoreFreq == nil {
		return 1
	}
	return c.CoreFreq[core]
}

// Homogeneous reports whether all cores share the nominal clock.
func (c Config) Homogeneous() bool {
	for _, f := range c.CoreFreq {
		if f != 1 {
			return false
		}
	}
	return true
}

// ComputeTime returns the virtual time of n local operations of base
// per-op latency t on the given core.
func (c Config) ComputeTime(core int, n int64, t float64) float64 {
	return float64(n) * t / c.CoreMult(core)
}

// ComputeEnergyScale returns the per-op energy multiplier of a core
// (mult², per the dynamic power law).
func (c Config) ComputeEnergyScale(core int) float64 {
	m := c.CoreMult(core)
	return m * m
}
