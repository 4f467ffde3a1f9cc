// Package jacobi implements the paper's first worked example (§4): the
// distributed Jacobi iteration for A·x = b as a STAMP algorithm with
// attributes [intra_proc, async_exec, synch_comm]. Each of n STAMP
// processes owns one component of x; every iteration of the while loop
// is an S-unit containing one S-round of receive → local computation →
// send, closed by the implicit barrier that synch_comm prescribes.
package jacobi

import (
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultAttrs is the paper's attribute set for Jacobi.
var DefaultAttrs = core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.SynchComm}

// Config parameterizes a distributed Jacobi run.
type Config struct {
	System workload.LinearSystem
	// Iters runs a fixed number of iterations (the S-unit count the
	// analysis reasons about). If 0, run until convergence (Tol).
	Iters int
	// Tol terminates once every component moved less than Tol in an
	// iteration. Used when Iters == 0.
	Tol float64
	// MaxIters bounds convergence mode (default 10·n).
	MaxIters int
	// Attrs defaults to the paper's [intra_proc, async_exec, synch_comm].
	Attrs *core.Attrs
	// Placement optionally overrides default placement (e.g. from the
	// power-aware allocator).
	Placement core.Placement
	// X0 optionally warm-starts the iteration (len n); nil means the
	// zero vector. Enables adaptive reallocation: run some iterations,
	// re-place the processes, continue from where the iterate stood.
	X0 []float64
	// Ckpt, when non-nil, checkpoints the run at its configured
	// interval of iterations (and, on a resuming controller, restores
	// the latest checkpoint and replays from it). Requires a fixed
	// iteration count (Iters > 0): the convergence test reads state the
	// checkpoint does not carry. Nil disables checkpointing entirely —
	// the run is byte-identical to one built without this field.
	Ckpt *ckpt.Controller
	// Adapt, when non-nil, runs the self-adaptive controller's loop at
	// every iteration boundary (adapt.Controller.Sync): members may be
	// live-migrated to new threads between iterations, carrying their
	// component and convergence state through the checkpoint machinery.
	// When both Ckpt and Adapt are set, the checkpoint commits first —
	// at the undisturbed consistency instant — and migration follows.
	// Nil disables adaptation entirely; the run is byte-identical to
	// one built without this field.
	Adapt *adapt.Controller
}

// Update carries one component's new value plus its per-iteration delta
// (piggybacked so convergence is detected without extra messages). It
// is exported (with exported fields) because checkpointed inboxes and
// in-flight messages carry it through gob.
type Update struct {
	From  int
	Val   float64
	Delta float64
}

// State is one member's checkpoint payload: the loop position and the
// locally owned component of the iterate. The peers' view (xv) is NOT
// saved — every S-round receives all n−1 peer components afresh, so on
// resume it is rebuilt from the restored mailboxes and in-flight
// messages before first use.
type State struct {
	It        int
	Xi        float64
	PrevDelta float64
}

// CkptWords is the checkpoint payload size charged per member: the
// component value and its delta (the iteration index rides free, as
// loop control rather than data). Exported so the recovery experiment
// can compute the exact per-checkpoint overhead ℓ_e + CkptWords·g_sh_e.
const CkptWords = 2

func init() {
	gob.Register(Update{})
}

// Result of a distributed run.
type Result struct {
	X     []float64 // solution estimate
	Iters int       // S-units executed per process
	Group *core.Group
}

// Report returns the group's cost report.
func (r Result) Report() core.GroupReport { return r.Group.Report() }

// Run builds the STAMP process group on sys and executes the
// simulation to completion.
func Run(sys *core.System, cfg Config) (Result, error) {
	ls := cfg.System
	n := ls.N
	if n < 2 {
		return Result{}, fmt.Errorf("jacobi: need n ≥ 2, got %d", n)
	}
	attrs := DefaultAttrs
	if cfg.Attrs != nil {
		attrs = *cfg.Attrs
	}
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 10 * n
	}
	if cfg.Iters > 0 {
		maxIters = cfg.Iters
	}
	ck := cfg.Ckpt
	if ck != nil && cfg.Iters == 0 {
		return Result{}, fmt.Errorf("jacobi: checkpointing requires a fixed iteration count (Iters > 0)")
	}

	x := make([]float64, n) // final per-component results
	iters := make([]int, n) // per-process S-unit counts
	if cfg.X0 != nil && len(cfg.X0) != n {
		return Result{}, fmt.Errorf("jacobi: X0 length %d != n %d", len(cfg.X0), n)
	}
	body := func(ctx *core.Ctx) {
		i := ctx.Index()
		xi := 0.0 // x_i(0) = 0 unless warm-started
		if cfg.X0 != nil {
			xi = cfg.X0[i]
		}
		xv := make([]float64, n) // local view of x(t)
		deltas := make([]float64, n)
		for j := range deltas {
			deltas[j] = math.Inf(1)
		}
		// prevOwnDelta is this process's delta from the previous
		// round. Peers' deltas arrive one round late, so the
		// convergence test uses the previous round's vector for every
		// component — identical at all processes, which keeps the
		// termination decision uniform (no process can stop while
		// another still expects its broadcast).
		prevOwnDelta := math.Inf(1)
		it0 := 0
		if ck != nil && ck.Resuming() {
			// Re-enter the loop at the checkpointed position. The seed
			// broadcast and barrier are skipped: they happened before
			// the checkpoint, and their messages (where still relevant)
			// live in the restored mailboxes.
			var st State
			if err := ck.DecodeMember(i, &st); err != nil {
				panic(fmt.Sprintf("jacobi: restore member %d: %v", i, err))
			}
			it0, xi, prevOwnDelta = st.It, st.Xi, st.PrevDelta
			iters[i] = st.It
		} else {
			// Seed round: announce x_i(0) so the first S-round has inputs.
			ctx.BroadcastAll(Update{From: i, Val: xi, Delta: math.Inf(1)})
			ctx.Barrier()
		}

		terminated := false
		for t := it0; !terminated; t++ {
			if ck != nil {
				ck.Commit(ctx, t, CkptWords, State{It: t, Xi: xi, PrevDelta: prevOwnDelta})
			}
			if cfg.Adapt != nil {
				// The adaptive loop may migrate this member; its loop
				// state rides the migration image, so continue from the
				// implanted values — the round trip is what pins
				// migration fidelity.
				st := State{It: t, Xi: xi, PrevDelta: prevOwnDelta}
				cfg.Adapt.Sync(ctx, t, &st)
				xi, prevOwnDelta = st.Xi, st.PrevDelta
			}
			ctx.SUnit(func() {
				ctx.IntOps(1) // while-condition check (part of T_c)
				ctx.SRound(func() {
					// receive x(t) from all other processes
					for _, m := range ctx.RecvN(n - 1) {
						u := m.Payload.(Update)
						xv[u.From] = u.Val
						deltas[u.From] = u.Delta
					}
					// x_i(t+1) = -1/a_ii (Σ_{j≠i} a_ij x_j(t) − b_i):
					// n−1 mults, n−2 adds, 1 sub, 1 mult = 2n−1 flops,
					// plus the assignment (1 int op) → c = 2n.
					var s float64
					for j := 0; j < n; j++ {
						if j != i {
							s += ls.A[i][j] * xv[j]
						}
					}
					next := -(s - ls.B[i]) / ls.A[i][i]
					ctx.FpOps(int64(2*n - 1))
					ctx.IntOps(1)
					d := math.Abs(next - xi)
					xi = next
					deltas[i] = prevOwnDelta
					prevOwnDelta = d
					// send x_i(t+1) to all other processes; the
					// S-round ends with the implicit barrier.
					ctx.BroadcastAll(Update{From: i, Val: xi, Delta: d})
				})
				// Termination test + flag set (the rest of T_c).
				ctx.IntOps(1)
				iters[i]++
				switch {
				case cfg.Iters > 0:
					terminated = iters[i] >= cfg.Iters
				default:
					conv := true
					for _, d := range deltas {
						if d >= cfg.Tol {
							conv = false
							break
						}
					}
					terminated = conv || iters[i] >= maxIters
				}
			})
		}
		x[i] = xi
	}

	var opts []core.GroupOption
	if cfg.Placement != nil {
		opts = append(opts, core.WithPlacement(cfg.Placement))
	}
	if ck != nil {
		ck.Attach(sys, "jacobi")
		if err := ck.RestoreSystem(sys); err != nil {
			return Result{}, err
		}
		opts = append(opts, ck.GroupOptions()...)
	}
	g := sys.NewGroupOpts("jacobi", attrs, n, body, opts...)
	if ck != nil {
		if err := ck.RestoreGroup(g); err != nil {
			return Result{}, err
		}
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return Result{X: x, Iters: iters[0], Group: g}, nil
}

// Sequential runs the classic sequential Jacobi iteration for iters
// steps (or until tol when iters == 0) and returns the estimate. It is
// the correctness baseline for the distributed version.
func Sequential(ls workload.LinearSystem, iters int, tol float64) ([]float64, int) {
	n := ls.N
	x := make([]float64, n)
	next := make([]float64, n)
	maxIters := iters
	if maxIters == 0 {
		maxIters = 10 * n
	}
	for t := 0; t < maxIters; t++ {
		var worst float64
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				if j != i {
					s += ls.A[i][j] * x[j]
				}
			}
			next[i] = -(s - ls.B[i]) / ls.A[i][i]
			if d := math.Abs(next[i] - x[i]); d > worst {
				worst = d
			}
		}
		x, next = next, x
		if iters == 0 && worst < tol {
			return x, t + 1
		}
	}
	return x, maxIters
}

// Model returns the §4 analytical model instantiated with the run's
// machine constants: intra-processor message delay and bandwidth when
// the whole group shares one core, inter-processor otherwise, and the
// energy ratios x = w_fp/w_int, y = w_ms/w_int taken from the cost
// table.
func Model(sys *core.System, g *core.Group, n int) cost.Jacobi {
	c := sys.M.Cfg.Costs
	intra := true
	pl := g.Placement()
	for _, th := range pl {
		if !sys.M.Cfg.SameCore(pl[0], th) {
			intra = false
			break
		}
	}
	j := cost.Jacobi{N: n, X: c.WFp / c.WInt, Y: c.WSend / c.WInt, WInt: c.WInt}
	if intra {
		j.L, j.G = float64(c.LA), c.GMpA
	} else {
		j.L, j.G = float64(c.LE), c.GMpE
	}
	return j
}

// MeasuredRound returns the measured group-level T and E of S-round 0
// of S-unit `unit` (the quantities the analytical T_S-round/E_S-round
// predict). Round indices are global per process, one round per unit.
func MeasuredRound(g *core.Group, unit int) (sim.Time, float64) {
	rs := g.RoundStats(unit, unit)
	if rs.Count == 0 {
		return 0, 0
	}
	return rs.MaxT, rs.SumE / float64(rs.Count)
}
