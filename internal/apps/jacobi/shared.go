package jacobi

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/workload"
)

// SharedAttrs annotates the shared-memory variant: serialized shared
// access with round barriers (synch_comm) on intra-packed threads.
var SharedAttrs = core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.SynchComm}

// SharedConfig parameterizes the shared-memory Jacobi variant: the
// iterate x lives in chip shared memory with double buffering instead
// of being exchanged through messages — the other communication family
// of the model (§3.1 distinguishes shared-memory comm from message
// passing; §4 runs Jacobi over message passing, this variant covers the
// alternative).
type SharedConfig struct {
	System workload.LinearSystem
	Iters  int     // fixed iteration count (0 = convergence mode)
	Tol    float64 // convergence threshold for Iters == 0
	// MaxIters bounds convergence mode (default 10·n).
	MaxIters int
	Attrs    *core.Attrs
}

// RunShared executes the shared-memory Jacobi: each process owns one
// component; every S-round reads the whole current iterate from shared
// memory, computes its component, writes it to the next buffer, and
// barriers. Buffers swap between rounds. Termination in convergence
// mode reads a shared delta vector between two barriers, which every
// process observes identically (uniform decision).
func RunShared(sys *core.System, cfg SharedConfig) (Result, error) {
	ls := cfg.System
	n := ls.N
	if n < 2 {
		return Result{}, fmt.Errorf("jacobi: need n ≥ 2, got %d", n)
	}
	attrs := SharedAttrs
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

	bufA := memory.NewRegion[float64](sys.Mem, "jacobi/xA", memory.Inter, 0, n)
	bufB := memory.NewRegion[float64](sys.Mem, "jacobi/xB", memory.Inter, 0, n)
	deltas := memory.NewRegion[float64](sys.Mem, "jacobi/delta", memory.Inter, 0, n)
	for i := 0; i < n; i++ {
		//stamplint:allow backdoor: cost-free initialization before the simulation starts
		deltas.Poke(i, math.Inf(1))
	}

	x := make([]float64, n)
	iters := make([]int, n)
	body := func(ctx *core.Ctx) {
		i := ctx.Index()
		cur, next := bufA, bufB
		xv := make([]float64, n) // this process's copies of x
		dv := make([]float64, n) // and of the deltas
		terminated := false
		for t := 0; !terminated; t++ {
			ctx.SUnit(func() {
				ctx.IntOps(1) // while condition
				ctx.SRound(func() {
					// read x (n shared reads in one access)
					cur.ReadRange(ctx, 0, xv)
					var s float64
					for j := 0; j < n; j++ {
						if j != i {
							s += ls.A[i][j] * xv[j]
						}
					}
					xi := -(s - ls.B[i]) / ls.A[i][i]
					ctx.FpOps(int64(2*n - 1))
					ctx.IntOps(1)
					// write x_i to the next buffer plus its delta
					next.Write(ctx, i, xi)
					deltas.Write(ctx, i, math.Abs(xi-xv[i]))
					x[i] = xi
					// implicit barrier via synch_comm round end
				})
				ctx.IntOps(1) // termination bookkeeping
				iters[i]++
				switch {
				case cfg.Iters > 0:
					terminated = iters[i] >= cfg.Iters
				default:
					// Between the round barrier and the next round no
					// process writes deltas, so this read-out is
					// identical at every process.
					conv := true
					deltas.ReadRange(ctx, 0, dv)
					for _, d := range dv {
						if d >= cfg.Tol {
							conv = false
						}
					}
					ctx.Barrier() // don't let next round's writes race
					terminated = conv || iters[i] >= maxIters
				}
			})
			cur, next = next, cur
		}
	}

	g := sys.NewGroup("jacobi-shm", attrs, n, body)
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return Result{X: x, Iters: iters[0], Group: g}, nil
}
