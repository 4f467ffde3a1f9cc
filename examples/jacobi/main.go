// Jacobi under a power envelope: the paper's §4 flagship example,
// written against the public stamp API. A distributed Jacobi solver
// [intra_proc, async_exec, synch_comm] runs with n processes; the §4
// derivation chain predicts its per-round cost and power, and the
// power-aware allocator decides how many processes one processor may
// host under the envelope 3(x+y)·w_int — the paper's "not more than
// three intra-processor threads per processor".
package main

import (
	"fmt"
	"log"
	"maps"
	"math"
	"slices"

	"repro/stamp"
)

const n = 12 // equations and STAMP processes

func main() {
	cfg := stamp.Niagara()

	// 1. The analytical side: instantiate the §4 Jacobi chain with the
	// machine's energy ratios x = w_fp/w_int, y = w_ms/w_int.
	c := cfg.Costs
	model := stamp.JacobiModel{
		N: n, L: float64(c.LA), G: c.GMpA,
		X: c.WFp / c.WInt, Y: c.WSend / c.WInt, WInt: c.WInt,
	}
	fmt.Printf("analytical: T_S-round=%.0f E_S-round=%.0f P≤%.0f\n",
		model.TSRound(), model.ESRound(), model.PowerBound())

	env := model.PaperEnvelope()
	d := stamp.Allocate(cfg, stamp.Job{
		Name: "jacobi", N: n, PowerPerProc: model.PowerBound(), Dist: stamp.IntraProc,
	}, env)
	fmt.Printf("allocator: envelope=%.0f → ≤%d processes per processor, %d cores (%s)\n",
		env, d.ThreadsPerCoreCap, d.CoresUsed, d.Reason)

	// 2. The executable side: run the solver with the allocator's
	// placement. Diagonally dominant system with known solution.
	a, b, xstar := makeSystem()
	sys := stamp.NewSystem(cfg)

	x := make([]float64, n)    // per-process results
	xv := make([][]float64, n) // per-process view of x(t)
	for i := range xv {
		xv[i] = make([]float64, n)
	}
	attrs := stamp.Attrs{Dist: stamp.IntraProc, Exec: stamp.AsyncExec, Comm: stamp.SynchComm}
	const iters = 30
	g := sys.NewGroupOpts("jacobi", attrs, n, func(ctx *stamp.Ctx) {
		i := ctx.Index()
		xi := 0.0
		ctx.BroadcastAll([2]float64{float64(i), xi})
		ctx.Barrier()
		for t := 0; t < iters; t++ {
			ctx.SUnit(func() {
				ctx.IntOps(1) // loop condition
				ctx.SRound(func() {
					for _, m := range ctx.RecvN(n - 1) {
						p := m.Payload.([2]float64)
						xv[i][int(p[0])] = p[1]
					}
					var s float64
					for j := 0; j < n; j++ {
						if j != i {
							s += a[i][j] * xv[i][j]
						}
					}
					xi = -(s - b[i]) / a[i][i]
					ctx.FpOps(2*n - 1)
					ctx.IntOps(1)
					ctx.BroadcastAll([2]float64{float64(i), xi})
				})
				ctx.IntOps(1) // termination check
			})
		}
		x[i] = xi
	}, stamp.WithPlacement(d.Placement))

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	var worst float64
	for i := range x {
		if e := math.Abs(x[i] - xstar[i]); e > worst {
			worst = e
		}
	}
	rep := g.Report()
	fmt.Printf("measured: group T=%d E=%.0f P=%.3f | residual %.2e after %d iters\n",
		rep.T(), rep.E(), rep.Power(), worst, iters)
	perCore := rep.PowerPerCore(cfg, cfg.Costs)
	for _, core := range slices.Sorted(maps.Keys(perCore)) {
		p := perCore[core]
		fmt.Printf("  core %d power %.3f (envelope %.0f) within=%v\n",
			core, p, env, p <= env)
	}
}

// makeSystem builds a deterministic diagonally dominant system with a
// known solution x*.
func makeSystem() (a [][]float64, b, xstar []float64) {
	a = make([][]float64, n)
	b = make([]float64, n)
	xstar = make([]float64, n)
	for i := 0; i < n; i++ {
		xstar[i] = float64((i%5)-2) / 2
	}
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		sum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				a[i][j] = math.Sin(float64(i*n+j)) / 2
				sum += math.Abs(a[i][j])
			}
		}
		a[i][i] = sum + 1.5
	}
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a[i][j] * xstar[j]
		}
		b[i] = s
	}
	return a, b, xstar
}
