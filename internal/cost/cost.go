// Package cost implements the STAMP analytical complexity model of
// §3.1 verbatim: the closed-form execution-time, energy and power
// formulas for S-rounds, S-units, processes and parallel/distributed
// groups, with the Knuth–Iverson bracket conditions, plus the paper's
// §4 Jacobi derivation chain. It is pure arithmetic — no simulation —
// so simulator measurements can be validated against it mechanically.
// The simulated shared memory charges an access as T_S-round charges
// shared-memory traffic (queue wait and ℓ once, g per word), so the
// formulas cost simulated shared-memory rounds as written, with the
// measured queue wait as κ.
package cost

import (
	"repro/internal/energy"
	"repro/internal/machine"
)

// Machine carries the model's machine constants as real numbers.
type Machine struct {
	TFp, TInt float64 // ticks per local op

	EllA, EllE float64 // shared-memory latencies ℓ_a, ℓ_e
	GShA, GShE float64 // shared-memory bandwidth factors
	LA, LE     float64 // message delays L_a, L_e
	GMpA, GMpE float64 // message-passing bandwidth factors

	// Hierarchical message tier (clusters of chips): L_x / g_mp_x for
	// cross-chip-within-cluster links, L_c / g_mp_c for cross-cluster
	// links. Zero on flat machines; FromCostTable applies the same
	// fallback chain as the simulator (L_x → L_e, L_c → L_x → L_e), so
	// predictions and measurements degrade together.
	LX, LC     float64
	GMpX, GMpC float64

	WFp, WInt, WRead, WWrite, WSend, WRecv float64 // per-op energies
}

// FromCostTable lifts a simulator cost table into the analytical
// machine parameters, so predictions and measurements share constants.
func FromCostTable(t machine.CostTable) Machine {
	return Machine{
		TFp: float64(t.TFp), TInt: float64(t.TInt),
		EllA: float64(t.EllA), EllE: float64(t.EllE),
		GShA: t.GShA, GShE: t.GShE,
		LA: float64(t.LA), LE: float64(t.LE),
		GMpA: t.GMpA, GMpE: t.GMpE,
		LX: float64(t.EffLX()), LC: float64(t.EffLC()),
		GMpX: t.EffGMpX(), GMpC: t.EffGMpC(),
		WFp: t.WFp, WInt: t.WInt, WRead: t.WRead, WWrite: t.WWrite,
		WSend: t.WSend, WRecv: t.WRecv,
	}
}

// Round carries the per-S-round algorithm parameters of §3.1.
type Round struct {
	CFp, CInt float64 // c_fp, c_int: local op counts

	// Process distribution: P_a intra-processor and P_e
	// inter-processor STAMP processes. They gate the latency terms via
	// Knuth–Iverson brackets.
	PA, PE int

	// Hierarchical distribution: P_x processes a cross-chip hop away
	// (same cluster) and P_c a cross-cluster hop away. Zero on flat
	// machines, leaving the paper's two-level formula untouched.
	PX, PC int

	// κ: worst-case serialization / rollback count for shared access.
	Kappa float64

	// Shared-memory traffic: d_r_a, d_r_e, d_w_a, d_w_e.
	DRa, DRe, DWa, DWe float64
	// Message traffic: m_s_a, m_s_e, m_r_a, m_r_e.
	MSa, MSe, MRa, MRe float64
	// Hierarchical message traffic: cross-chip (m_s_x, m_r_x) and
	// cross-cluster (m_s_c, m_r_c) words.
	MSx, MSc, MRx, MRc float64

	// Family toggles: the formula's [shared memory comm] and
	// [message passing comm] brackets.
	SharedMem, MsgPassing bool
}

// FromCounters fills a Round's traffic fields from measured counters
// (the family brackets are switched on when traffic exists).
func FromCounters(c energy.Counters) Round {
	r := Round{
		CFp: float64(c.FpOps), CInt: float64(c.IntOps),
		DRa: float64(c.ReadsIntra), DRe: float64(c.ReadsInter),
		DWa: float64(c.WritesIntra), DWe: float64(c.WritesInter),
		MSa: float64(c.SendsIntra), MSe: float64(c.SendsInter),
		MRa: float64(c.RecvsIntra), MRe: float64(c.RecvsInter),
	}
	r.SharedMem = r.DRa+r.DRe+r.DWa+r.DWe > 0
	r.MsgPassing = r.MSa+r.MSe+r.MRa+r.MRe > 0
	return r
}

// b is the Knuth–Iverson bracket.
func b(cond bool) float64 {
	if cond {
		return 1
	}
	return 0
}

// C returns the local computation time c = c_fp·t_fp + c_int·t_int.
func (r Round) C(m Machine) float64 { return r.CFp*m.TFp + r.CInt*m.TInt }

// T evaluates the paper's T_S-round formula:
//
//	T = c + [shm](κ + [P_e≥1]ℓ_e + [P_a≥1]ℓ_a
//	              + g_sh_a(d_r_a+d_w_a) + g_sh_e(d_r_e+d_w_e))
//	      + [mp]([P_e≥1]L_e + [P_a≥1]L_a
//	              + g_mp_a(m_s_a+m_r_a) + g_mp_e(m_s_e+m_r_e))
//
// On clustered machines two more bracketed tiers follow the same
// shape: [P_x≥1]L_x + g_mp_x(m_s_x+m_r_x) and [P_c≥1]L_c +
// g_mp_c(m_s_c+m_r_c). They vanish on flat rounds (P_x = P_c = 0, no
// tiered traffic), so the paper's original formula is the special
// case.
func (r Round) T(m Machine) float64 {
	t := r.C(m)
	t += b(r.SharedMem) * (r.Kappa +
		b(r.PE >= 1)*m.EllE + b(r.PA >= 1)*m.EllA +
		m.GShA*(r.DRa+r.DWa) + m.GShE*(r.DRe+r.DWe))
	t += b(r.MsgPassing) * (b(r.PE >= 1)*m.LE + b(r.PA >= 1)*m.LA +
		m.GMpA*(r.MSa+r.MRa) + m.GMpE*(r.MSe+r.MRe) +
		b(r.PX >= 1)*m.LX + b(r.PC >= 1)*m.LC +
		m.GMpX*(r.MSx+r.MRx) + m.GMpC*(r.MSc+r.MRc))
	return t
}

// E evaluates the paper's E_S-round formula:
//
//	E = c_fp·w_fp + c_int·w_int + w_dr(d_r_a+d_r_e) + w_dw(d_w_a+d_w_e)
//	  + w_mr(m_r_a+m_r_e) + w_ms(m_s_a+m_s_e)
func (r Round) E(m Machine) float64 {
	return r.CFp*m.WFp + r.CInt*m.WInt +
		m.WRead*(r.DRa+r.DRe) + m.WWrite*(r.DWa+r.DWe) +
		m.WRecv*(r.MRa+r.MRe+r.MRx+r.MRc) + m.WSend*(r.MSa+r.MSe+r.MSx+r.MSc)
}

// P returns the expected S-round power E/T (0 for T = 0).
func (r Round) P(m Machine) float64 {
	t := r.T(m)
	if t == 0 {
		return 0
	}
	return r.E(m) / t
}

// Unit is an S-unit: a sequence of S-rounds plus local computation
// outside rounds (rule 2 of §3.1).
type Unit struct {
	Rounds []Round
	// TC and EC are the time and energy of local computations outside
	// S-rounds (the paper's T_c and E_c).
	TC, EC float64
}

// T returns T_S-unit = Σ T_S-round + T_c.
func (u Unit) T(m Machine) float64 {
	t := u.TC
	for _, r := range u.Rounds {
		t += r.T(m)
	}
	return t
}

// E returns E_S-unit = Σ E_S-round + E_c.
func (u Unit) E(m Machine) float64 {
	e := u.EC
	for _, r := range u.Rounds {
		e += r.E(m)
	}
	return e
}

// P returns the S-unit power E/T.
func (u Unit) P(m Machine) float64 {
	t := u.T(m)
	if t == 0 {
		return 0
	}
	return u.E(m) / t
}

// Process is a STAMP process: a sequence of S-units (rule 3).
type Process struct{ Units []Unit }

// T sums the unit times.
func (p Process) T(m Machine) float64 {
	t := 0.0
	for _, u := range p.Units {
		t += u.T(m)
	}
	return t
}

// E sums the unit energies.
func (p Process) E(m Machine) float64 {
	e := 0.0
	for _, u := range p.Units {
		e += u.E(m)
	}
	return e
}

// Group is a set of parallel/distributed STAMP processes (rule 5:
// T = max, E = sum, P = E/T).
type Group struct{ Procs []Process }

// T returns the worst-case (maximum) process time.
func (g Group) T(m Machine) float64 {
	max := 0.0
	for _, p := range g.Procs {
		if t := p.T(m); t > max {
			max = t
		}
	}
	return max
}

// E returns the total energy of all processes.
func (g Group) E(m Machine) float64 {
	e := 0.0
	for _, p := range g.Procs {
		e += p.E(m)
	}
	return e
}

// P returns group power E/T.
func (g Group) P(m Machine) float64 {
	t := g.T(m)
	if t == 0 {
		return 0
	}
	return g.E(m) / t
}
