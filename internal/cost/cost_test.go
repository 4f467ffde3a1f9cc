package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/machine"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func mach() Machine { return FromCostTable(machine.DefaultCosts()) }

func TestRoundLocalOnly(t *testing.T) {
	r := Round{CFp: 10, CInt: 5}
	m := mach()
	if got := r.T(m); !approx(got, 10*m.TFp+5*m.TInt) {
		t.Fatalf("T = %g", got)
	}
	if got := r.E(m); !approx(got, 10*m.WFp+5*m.WInt) {
		t.Fatalf("E = %g", got)
	}
}

func TestKnuthIversonBracketsGateLatencies(t *testing.T) {
	m := mach()
	base := Round{CInt: 1, SharedMem: true, DRa: 1}
	// No P_a / P_e processes declared: no ℓ terms.
	t0 := base.T(m)
	withPA := base
	withPA.PA = 2
	if d := withPA.T(m) - t0; !approx(d, m.EllA) {
		t.Fatalf("P_a bracket added %g, want ℓ_a=%g", d, m.EllA)
	}
	withBoth := withPA
	withBoth.PE = 3
	if d := withBoth.T(m) - withPA.T(m); !approx(d, m.EllE) {
		t.Fatalf("P_e bracket added %g, want ℓ_e=%g", d, m.EllE)
	}
}

func TestFamilyTogglesGateWholeTerms(t *testing.T) {
	m := mach()
	r := Round{CInt: 1, PA: 1, PE: 1, Kappa: 7, DRa: 3, DWe: 2, MSa: 4, MRe: 5}
	// Both families off: pure local time despite traffic fields.
	if got := r.T(m); !approx(got, 1) {
		t.Fatalf("T with families off = %g, want 1", got)
	}
	r.SharedMem = true
	tShm := r.T(m)
	wantShm := 1 + r.Kappa + m.EllE + m.EllA + m.GShA*3 + m.GShE*2
	if !approx(tShm, wantShm) {
		t.Fatalf("T with shm = %g, want %g", tShm, wantShm)
	}
	r.MsgPassing = true
	wantBoth := wantShm + m.LE + m.LA + m.GMpA*4 + m.GMpE*5
	if got := r.T(m); !approx(got, wantBoth) {
		t.Fatalf("T with both = %g, want %g", got, wantBoth)
	}
}

func TestKappaIsAdditive(t *testing.T) {
	m := mach()
	r := Round{SharedMem: true, DRa: 1, PA: 1}
	t0 := r.T(m)
	r.Kappa = 9
	if d := r.T(m) - t0; !approx(d, 9) {
		t.Fatalf("κ added %g, want 9", d)
	}
}

func TestEnergyFormulaMatchesEnergyPackage(t *testing.T) {
	// The analytical E and the simulator-side energy.Energy must agree
	// on identical counters.
	c := energy.Counters{
		FpOps: 7, IntOps: 11,
		ReadsIntra: 2, ReadsInter: 3, WritesIntra: 4, WritesInter: 5,
		SendsIntra: 6, SendsInter: 7, RecvsIntra: 8, RecvsInter: 9,
	}
	tab := machine.DefaultCosts()
	r := FromCounters(c)
	if got, want := r.E(FromCostTable(tab)), energy.Energy(c, tab); !approx(got, want) {
		t.Fatalf("analytical E %g != energy package %g", got, want)
	}
}

func TestFromCountersSetsFamilyToggles(t *testing.T) {
	if r := FromCounters(energy.Counters{FpOps: 5}); r.SharedMem || r.MsgPassing {
		t.Fatal("toggles on without traffic")
	}
	if r := FromCounters(energy.Counters{ReadsInter: 1}); !r.SharedMem || r.MsgPassing {
		t.Fatal("shared-memory toggle wrong")
	}
	if r := FromCounters(energy.Counters{SendsIntra: 1}); r.SharedMem || !r.MsgPassing {
		t.Fatal("message-passing toggle wrong")
	}
}

func TestUnitAggregation(t *testing.T) {
	m := mach()
	u := Unit{
		Rounds: []Round{{CInt: 10}, {CInt: 20}},
		TC:     2, EC: 3,
	}
	if got := u.T(m); !approx(got, 32) {
		t.Fatalf("unit T = %g, want 32", got)
	}
	if got := u.E(m); !approx(got, 33) { // 10+20 int ops ·w_int=1 + EC
		t.Fatalf("unit E = %g, want 33", got)
	}
	if got := u.P(m); !approx(got, 33.0/32) {
		t.Fatalf("unit P = %g", got)
	}
}

func TestProcessAndGroupRules(t *testing.T) {
	m := mach()
	short := Process{Units: []Unit{{TC: 10, EC: 5}}}
	long := Process{Units: []Unit{{TC: 30, EC: 8}, {TC: 10, EC: 2}}}
	g := Group{Procs: []Process{short, long}}
	if got := g.T(m); !approx(got, 40) { // max rule
		t.Fatalf("group T = %g, want 40", got)
	}
	if got := g.E(m); !approx(got, 15) { // sum rule
		t.Fatalf("group E = %g, want 15", got)
	}
	if got := g.P(m); !approx(got, 15.0/40) {
		t.Fatalf("group P = %g", got)
	}
}

func TestZeroDivisionsAreSafe(t *testing.T) {
	m := mach()
	if (Round{}).P(m) != 0 || (Unit{}).P(m) != 0 || (Group{}).P(m) != 0 {
		t.Fatal("zero-time power not zero")
	}
}

// --- Jacobi §4 derivation chain --------------------------------------

func jac(n int) Jacobi {
	return Jacobi{N: n, L: 5, G: 1, X: 2, Y: 3, WInt: 1}
}

func TestJacobiTSRoundFormula(t *testing.T) {
	j := jac(10)
	// 2n + L + 2gn − 2g = 20 + 5 + 20 − 2 = 43
	if got := j.TSRound(); !approx(got, 43) {
		t.Fatalf("T_S-round = %g, want 43", got)
	}
}

func TestJacobiESRoundFormula(t *testing.T) {
	j := jac(10)
	// w_fp(2n−1) + w_int + 2·w_m(n−1) = 2·19 + 1 + 2·3·9 = 93
	if got := j.ESRound(); !approx(got, 93) {
		t.Fatalf("E_S-round = %g, want 93", got)
	}
}

func TestJacobiMatchesGenericModel(t *testing.T) {
	// The specialized §4 formulas must agree with the general §3.1
	// formulas instantiated with the Jacobi op counts.
	for _, n := range []int{2, 5, 16, 100} {
		j := jac(n)
		r, m := j.RoundParams()
		if got, want := r.T(m), j.TSRound(); !approx(got, want) {
			t.Fatalf("n=%d: generic T %g != specialized %g", n, got, want)
		}
		if got, want := r.E(m), j.ESRound(); !approx(got, want) {
			t.Fatalf("n=%d: generic E %g != specialized %g", n, got, want)
		}
	}
}

func TestJacobiUnitBounds(t *testing.T) {
	j := jac(10)
	if got := j.TSUnitLower(); !approx(got, 45) { // 43 + 2
		t.Fatalf("T_S-unit lower = %g, want 45", got)
	}
	// E_S-unit ≤ (2w_fp+2w_m)n + 3w_int − 2w_m = 10n + 3 − 6 = 97
	if got := j.ESUnitUpper(); !approx(got, 97) {
		t.Fatalf("E_S-unit upper = %g, want 97", got)
	}
	if got := j.PSUnitUpper(); !approx(got, 97.0/45) {
		t.Fatalf("P_S-unit upper = %g", got)
	}
}

func TestJacobiPaperLowerBoundChain(t *testing.T) {
	// With L = 5 and g = 3/(n(n−1)):
	// T_S-unit ≥ 2n + 6/n + 7 ≥ 2n.
	for _, n := range []int{2, 4, 8, 64, 256} {
		j := jac(n).WithPaperLowerBounds()
		got := j.TSUnitLower()
		want := j.TSUnitPaperBound()
		if !approx(got, want) {
			t.Fatalf("n=%d: bound chain %g != 2n+6/n+7 = %g", n, got, want)
		}
		if got < 2*float64(n) {
			t.Fatalf("n=%d: T_S-unit bound %g < 2n", n, got)
		}
	}
}

func TestJacobiMinG(t *testing.T) {
	if got := MinG(4); !approx(got, 0.25) {
		t.Fatalf("MinG(4) = %g, want 3/12", got)
	}
}

func TestJacobiPowerBound(t *testing.T) {
	j := jac(100)
	if got := j.PowerBound(); !approx(got, 5) { // (x+y)·w_int = 5
		t.Fatalf("power bound %g, want 5", got)
	}
	// And the bound dominates the detailed estimate for large n.
	if ps := j.WithPaperLowerBounds().PSUnitUpper(); ps > j.PowerBound() {
		t.Fatalf("detailed P %g exceeds closed bound %g", ps, j.PowerBound())
	}
}

func TestJacobiThreeThreadDecision(t *testing.T) {
	// The paper: envelope 3(x+y)w_int ⇒ at most 3 intra-processor
	// threads, i.e. it cannot run on all 4 threads of a Niagara core.
	j := jac(64)
	env := j.PaperEnvelope()
	if got := j.MaxThreadsUnderEnvelope(env); got != 3 {
		t.Fatalf("max threads under paper envelope = %d, want 3", got)
	}
	if got := j.MaxThreadsUnderEnvelope(env * 2); got != 6 {
		t.Fatalf("doubled envelope = %d threads, want 6", got)
	}
}

func TestJacobiPowerBoundScalesWithXY(t *testing.T) {
	f := func(x8, y8 uint8) bool {
		x := 2 + float64(x8%10)
		y := 2 + float64(y8%10)
		j := Jacobi{N: 50, X: x, Y: y, WInt: 1}.WithPaperLowerBounds()
		// Detailed per-unit power never exceeds (x+y)·w_int.
		return j.PSUnitUpper() <= j.PowerBound()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiBoundsMonotonicInN(t *testing.T) {
	prevT, prevE := 0.0, 0.0
	for n := 2; n <= 128; n *= 2 {
		j := jac(n)
		if tt := j.TSRound(); tt <= prevT {
			t.Fatalf("T_S-round not increasing at n=%d", n)
		} else {
			prevT = tt
		}
		if e := j.ESRound(); e <= prevE {
			t.Fatalf("E_S-round not increasing at n=%d", n)
		} else {
			prevE = e
		}
	}
}

func TestFromCostTableRoundTrip(t *testing.T) {
	tab := machine.DefaultCosts()
	m := FromCostTable(tab)
	if m.EllA != float64(tab.EllA) || m.LE != float64(tab.LE) ||
		m.GShE != tab.GShE || m.WSend != tab.WSend {
		t.Fatalf("lifted machine params wrong: %+v", m)
	}
}

// --- APSP §4 analytical model -----------------------------------------

func apspModel(v int) APSP {
	return APSP{V: v, EllE: 4, GShE: 2, WInt: 1, WRead: 2, WWrite: 2}
}

func TestAPSPCountsAndFormulas(t *testing.T) {
	a := apspModel(10)
	if a.Reads() != 100 || a.WritesUpper() != 10 || a.LocalOps() != 200 {
		t.Fatalf("counts: %g %g %g", a.Reads(), a.WritesUpper(), a.LocalOps())
	}
	// paper-literal: 200 + 0 + 4 + 2·110 = 424
	if got := a.TSRoundPaper(); !approx(got, 424) {
		t.Fatalf("paper T = %g, want 424", got)
	}
	// energy: 200·1 + 100·2 + 10·2 = 420
	if got := a.ESRoundUpper(); !approx(got, 420) {
		t.Fatalf("E = %g, want 420", got)
	}
}

func TestAPSPKappaAdditive(t *testing.T) {
	a := apspModel(8)
	base := a.TSRoundPaper()
	a.Kappa = 37
	if d := a.TSRoundPaper() - base; !approx(d, 37) {
		t.Fatalf("κ added %g", d)
	}
}

func TestAPSPMatchesGenericModel(t *testing.T) {
	for _, v := range []int{4, 16, 64} {
		a := apspModel(v)
		a.Kappa = float64(v)
		r, m := a.RoundParams()
		if got, want := r.T(m), a.TSRoundPaper(); !approx(got, want) {
			t.Fatalf("v=%d: generic T %g != specialized %g", v, got, want)
		}
		if got, want := r.E(m), a.ESRoundUpper(); !approx(got, want) {
			t.Fatalf("v=%d: generic E %g != specialized %g", v, got, want)
		}
	}
}

// TestClusterTierBracketsAndFallback pins the hierarchical message
// tier: on a clustered machine the P_x / P_c brackets add L_x and L_c
// with their bandwidth terms, and on a flat cost table the lifted tier
// falls back to L_e / g_mp_e, so flat predictions are unchanged.
func TestClusterTierBracketsAndFallback(t *testing.T) {
	cm := FromCostTable(machine.Cluster(2, 2, 2, 2).Costs)
	base := Round{CInt: 1, MsgPassing: true, MSa: 1}
	t0 := base.T(cm)
	withPX := base
	withPX.PX = 1
	if d := withPX.T(cm) - t0; !approx(d, cm.LX) {
		t.Fatalf("P_x bracket added %g, want L_x=%g", d, cm.LX)
	}
	withPC := withPX
	withPC.PC = 1
	if d := withPC.T(cm) - withPX.T(cm); !approx(d, cm.LC) {
		t.Fatalf("P_c bracket added %g, want L_c=%g", d, cm.LC)
	}
	traffic := withPC
	traffic.MSx, traffic.MRx, traffic.MSc, traffic.MRc = 2, 1, 3, 4
	wantBW := cm.GMpX*(2+1) + cm.GMpC*(3+4)
	if d := traffic.T(cm) - withPC.T(cm); !approx(d, wantBW) {
		t.Fatalf("tiered bandwidth added %g, want %g", d, wantBW)
	}
	wantE := base.E(cm) + cm.WSend*(2+3) + cm.WRecv*(1+4)
	if got := traffic.E(cm); !approx(got, wantE) {
		t.Fatalf("tiered energy %g, want %g", got, wantE)
	}

	// Flat table: the lifted tier degrades to the inter-chip constants.
	fm := mach()
	if fm.LX != fm.LE || fm.LC != fm.LE || fm.GMpX != fm.GMpE || fm.GMpC != fm.GMpE {
		t.Fatalf("flat fallback broken: %+v", fm)
	}
}
