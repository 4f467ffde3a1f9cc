package cost

// APSP models the paper's third example (§4) analytically: one S-round
// of the distributed all-pairs-shortest-paths process reads the whole
// n×n shared vector, performs the min-plus row update, and writes back
// its row — shared-memory communication in the async_comm mode.
type APSP struct {
	V int // vertices = processes

	EllE float64 // shared-memory latency ℓ_e
	GShE float64 // bandwidth factor g_sh_e
	// Kappa is the serialization term: with P processes sweeping the
	// same matrix words, accesses queue; pass a measured value (the
	// simulator reports QueueWait) or a worst-case estimate.
	Kappa float64

	WInt, WRead, WWrite float64
}

// Reads returns d_r per process per round: the full matrix, n².
func (a APSP) Reads() float64 { return float64(a.V) * float64(a.V) }

// WritesUpper returns the per-round write upper bound: the process's
// whole row (only changed entries are written back; n is the cap).
func (a APSP) WritesUpper() float64 { return float64(a.V) }

// LocalOps returns c_int per round: the min-plus update is n² additions
// and n² comparisons.
func (a APSP) LocalOps() float64 { return 2 * float64(a.V) * float64(a.V) }

// TSRoundPaper evaluates the §3.1 formula (ℓ_e charged once per round):
//
//	T = c + κ + ℓ_e + g_sh_e·(d_r + d_w)
func (a APSP) TSRoundPaper() float64 {
	return a.LocalOps() + a.Kappa + a.EllE + a.GShE*(a.Reads()+a.WritesUpper())
}

// ESRoundUpper returns the per-round energy upper bound:
//
//	E ≤ c_int·w_int + d_r·w_dr + n·w_dw
func (a APSP) ESRoundUpper() float64 {
	return a.LocalOps()*a.WInt + a.Reads()*a.WRead + a.WritesUpper()*a.WWrite
}

// RoundParams expresses the round in the generic §3.1 structures for
// cross-checking (paper-literal form).
func (a APSP) RoundParams() (Round, Machine) {
	r := Round{
		CInt:      a.LocalOps(),
		PE:        a.V,
		Kappa:     a.Kappa,
		DRe:       a.Reads(),
		DWe:       a.WritesUpper(),
		SharedMem: true,
	}
	m := Machine{
		TInt: 1, TFp: 1,
		EllE: a.EllE, GShE: a.GShE,
		WInt: a.WInt, WRead: a.WRead, WWrite: a.WWrite,
	}
	return r, m
}
