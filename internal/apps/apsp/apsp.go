// Package apsp implements the paper's third worked example (§4): an
// all-pairs-shortest-paths algorithm in the async_exec category of the
// STAMP model with async_comm shared-memory access and inter_proc
// distribution. The shared n×n distance matrix is single-writer/
// multiple-reader — process i owns row i — so, as the paper notes, the
// algorithm needs no synchronization for safety, and faster processes
// "can compute more rounds ... and possibly help the slow processors".
//
// Termination is detected by epochs: processes iterate asynchronously
// within an epoch, then barrier and inspect a shared change counter.
// If an entire epoch passed with no update anywhere, the matrix was
// constant through everyone's last full round, hence a fixpoint of the
// row-update operator — exactly min-plus convergence. Distances only
// decrease and are bounded below, so the scheme always terminates.
package apsp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/energy"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultAttrs is the paper's attribute set for APSP.
var DefaultAttrs = core.Attrs{Dist: core.InterProc, Exec: core.AsyncExec, Comm: core.AsyncComm}

// Mode selects the iteration discipline.
type Mode int

const (
	// Async is the paper's variant: processes iterate freely within an
	// epoch; only epoch boundaries synchronize (for termination
	// detection).
	Async Mode = iota
	// BulkSync barriers after every round (BSP-style), the comparison
	// point the paper argues against for heterogeneous machines.
	BulkSync
)

// String returns "async" or "bulksync".
func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "bulksync"
}

// ModeByName returns the mode whose String is name.
func ModeByName(name string) (Mode, error) {
	for _, m := range []Mode{Async, BulkSync} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown apsp mode %q (want async | bulksync)", name)
}

// Config parameterizes an APSP run.
type Config struct {
	Graph workload.Graph
	Mode  Mode
	// EpochLen is the virtual-time length of an async epoch; fast
	// processes fit more rounds into it. 0 picks a default scaled to
	// one round's nominal cost.
	EpochLen sim.Time
	// SlowFactor optionally gives per-process compute-speed handicaps
	// (1 = nominal; 2 = half speed). Models heterogeneous processors.
	SlowFactor []float64
	// MaxEpochs bounds the run (default 4·V).
	MaxEpochs int
	Attrs     *core.Attrs
}

// Result of an APSP run.
type Result struct {
	Dist   [][]int64 // converged distance matrix
	Epochs int
	// RoundsPerProc counts full update rounds each process completed.
	RoundsPerProc []int
	Group         *core.Group
}

// Report returns the group's cost report.
func (r Result) Report() core.GroupReport { return r.Group.Report() }

// TotalRounds sums rounds across processes.
func (r Result) TotalRounds() int {
	t := 0
	for _, n := range r.RoundsPerProc {
		t += n
	}
	return t
}

// Run executes APSP on sys to completion.
func Run(sys *core.System, cfg Config) (Result, error) {
	g := cfg.Graph
	v := g.V
	if v < 2 {
		return Result{}, fmt.Errorf("apsp: need at least 2 vertices, got %d", v)
	}
	attrs := DefaultAttrs
	if cfg.Attrs != nil {
		attrs = *cfg.Attrs
	}
	maxEpochs := cfg.MaxEpochs
	if maxEpochs == 0 {
		maxEpochs = 4 * v
	}
	epochLen := cfg.EpochLen
	if epochLen == 0 {
		// Nominal cost of ~1.5 rounds: v reads + v writes at inter
		// cost (ℓ_e + g_sh_e each) plus 2v² compute ticks.
		c := sys.M.Cfg.Costs
		perRound := sim.Time(v*v)*(c.EllE+sim.Time(c.GShE)) + sim.Time(2*v*v)
		epochLen = perRound * 3 / 2
	}
	if len(cfg.SlowFactor) != 0 && len(cfg.SlowFactor) != v {
		return Result{}, fmt.Errorf("apsp: SlowFactor length %d != V %d", len(cfg.SlowFactor), v)
	}

	// Shared state: the distance matrix (row-major) and a change
	// counter region, all at chip scope (inter-processor shared memory).
	// Both regions are racy by design — the paper's point about this
	// algorithm — so they are declared as such for the race detector.
	x := memory.NewRegion[int64](sys.Mem, "apsp/x", memory.Inter, 0, v*v).
		AllowRaces("single-writer rows read racily across processes; min-plus updates are monotone, so a stale read only delays convergence")
	for i := 0; i < v; i++ {
		for j := 0; j < v; j++ {
			//stamplint:allow backdoor: cost-free initialization before the simulation starts
			x.Poke(i*v+j, g.W[i][j])
		}
	}
	changes := memory.NewRegion[int64](sys.Mem, "apsp/changes", memory.Inter, 0, 1).
		AllowRaces("deliberately racy read-modify-write counter; lost updates are harmless because any bump changes the value")

	rounds := make([]int, v)
	epochs := 0

	body := func(ctx *core.Ctx) {
		i := ctx.Index()
		slow := 1.0
		if cfg.SlowFactor != nil {
			slow = cfg.SlowFactor[i]
		}
		row := make([]int64, v)

		// oneRound reads the matrix, recomputes row i and writes back
		// changed entries; it reports whether anything changed.
		oneRound := func() bool {
			changed := false
			ctx.SRound(func() {
				// read x (the whole matrix, one serialized access per
				// word, as the paper's "read x" step).
				m := x.ReadRange(ctx, 0, v*v)
				copy(row, m[i*v:(i+1)*v])
				// forall j: x_ij = min_k { x_ik + x_kj }
				for j := 0; j < v; j++ {
					best := row[j]
					for k := 0; k < v; k++ {
						if d := m[i*v+k] + m[k*v+j]; d < best {
							best = d
						}
					}
					if best < row[j] {
						row[j] = best
						changed = true
					}
				}
				ctx.IntOps(int64(2 * v * v)) // adds + compares
				if slow > 1 {
					ctx.HoldCost(float64(2*v*v) * (slow - 1))
				}
				// write x_i: update the i-th row (only changed words
				// go back to memory). Process i is row i's only
				// writer, so the value read into m this round is
				// still the committed one.
				for j := 0; j < v; j++ {
					if row[j] != m[i*v+j] {
						x.Write(ctx, i*v+j, row[j])
					}
				}
			})
			rounds[i]++
			return changed
		}

		// prev is the change counter as of the previous epoch's
		// boundary. The termination test compares only values read
		// between the two epoch barriers — a window with no writers —
		// so every process sees the same count and decides uniformly
		// (otherwise a lone continuing process would deadlock on the
		// next barrier). The counter increases strictly whenever any
		// process changed a distance, so equality ⟺ a whole epoch
		// passed with the matrix constant ⟺ min-plus fixpoint.
		prev := int64(0)
		for epoch := 0; ; epoch++ {
			myChanged := false
			switch cfg.Mode {
			case BulkSync:
				myChanged = oneRound()
			case Async:
				deadline := ctx.Now() + epochLen
				for {
					if oneRound() {
						myChanged = true
					}
					if ctx.Now() >= deadline {
						break
					}
				}
			}
			if myChanged {
				// Read-modify-write on the shared counter; lost
				// updates are harmless, any bump changes the value.
				cur := changes.Read(ctx, 0)
				changes.Write(ctx, 0, cur+1)
			}
			ctx.Barrier()
			cnt := changes.Read(ctx, 0)
			ctx.Barrier() // next epoch's bumps must not race the read
			if i == 0 {
				epochs = epoch + 1
			}
			if cnt == prev || epoch+1 >= maxEpochs {
				return
			}
			prev = cnt
		}
	}

	grp := sys.NewGroup("apsp", attrs, v, body)
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	out := make([][]int64, v)
	for i := 0; i < v; i++ {
		out[i] = make([]int64, v)
		for j := 0; j < v; j++ {
			//stamplint:allow backdoor: cost-free result extraction after the simulation ends
			out[i][j] = x.Peek(i*v + j)
		}
	}
	return Result{Dist: out, Epochs: epochs, RoundsPerProc: rounds, Group: grp}, nil
}

// Model returns the §4 round model of a finished APSP group with the
// measured κ — the mean queue wait per S-round — substituted, as the
// §4 analysis does, together with the measured mean S-round time T and
// energy E over every round of every member. ok is false when the
// group recorded no rounds.
func Model(g *core.Group) (m cost.APSP, meanT, meanE float64, ok bool) {
	cfg := g.Ctxs()[0].System().M.Cfg
	var sumT, sumWait, sumE float64
	var rounds int
	for _, c := range g.Ctxs() {
		scale := cfg.ComputeEnergyScale(cfg.CoreOf(c.Thread()))
		for _, r := range c.Rounds() {
			sumT += float64(r.T())
			sumWait += float64(r.Ops.QueueWait)
			sumE += energy.EnergyScaled(r.Ops, cfg.Costs, scale)
			rounds++
		}
	}
	if rounds == 0 {
		return m, 0, 0, false
	}
	n := float64(rounds)
	cm := cfg.Costs
	m = cost.APSP{V: g.Size(), EllE: float64(cm.EllE), GShE: cm.GShE,
		Kappa: sumWait / n, WInt: cm.WInt, WRead: cm.WRead, WWrite: cm.WWrite}
	return m, sumT / n, sumE / n, true
}

// FloydWarshall is the sequential exact baseline.
func FloydWarshall(g workload.Graph) [][]int64 {
	d := g.Clone()
	v := g.V
	for k := 0; k < v; k++ {
		for i := 0; i < v; i++ {
			dik := d[i][k]
			if dik >= workload.Inf {
				continue
			}
			for j := 0; j < v; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

// Equal reports whether two distance matrices are identical.
func Equal(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
