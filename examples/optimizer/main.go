// Metric-driven configuration choice — the paper's §5 future work,
// against the public stamp API. The cost model evaluates every
// (process count, distribution, DVFS point) for an iterative kernel;
// different §2.1 metrics pick different machines, and the power
// envelope prunes the hot ones. The chosen configuration is then run
// on the simulator with tracing enabled to show it end to end.
package main

import (
	"fmt"
	"log"

	"repro/stamp"
)

func main() {
	cfg := stamp.Niagara()
	w := stamp.OptWorkload{
		Name:       "stencil",
		TotalFp:    4096,
		TotalInt:   512,
		Iterations: 3,
		MsgsPerProc: func(p int) int { // ring exchange
			return 1
		},
	}
	freqs := []float64{0.5, 1}

	fmt.Println("metric-driven choice (no envelope):")
	for _, m := range []stamp.Metric{stamp.MetricD, stamp.MetricPDP, stamp.MetricEDP, stamp.MetricED2P} {
		best, _ := stamp.Optimize(cfg, w, m, 0, freqs)
		fmt.Printf("  %-5v → %v  (pred T=%.0f E=%.0f P/core=%.2f)\n",
			m, best.Cfg, best.T, best.E, best.PerCore)
	}

	// Envelope pruning.
	free, _ := stamp.Optimize(cfg, w, stamp.MetricD, 0, freqs)
	env := free.PerCore / 2
	tight, _ := stamp.Optimize(cfg, w, stamp.MetricD, env, freqs)
	fmt.Printf("\nper-core envelope %.2f forces: %v (was %v)\n", env, tight.Cfg, free.Cfg)

	// Run the chosen pick for real, traced, on a machine clocked at
	// the chosen DVFS point.
	tr := stamp.NewTracer()
	mach := cfg
	if tight.Cfg.Freq != 1 {
		mach = cfg.AtFrequency(tight.Cfg.Freq)
	}
	sys := stamp.NewSystem(mach, stamp.WithTracer(tr))
	attrs := stamp.Attrs{Dist: tight.Cfg.Dist, Exec: stamp.AsyncExec, Comm: stamp.AsyncComm}
	g := sys.NewGroup("stencil", attrs, tight.Cfg.P, func(ctx *stamp.Ctx) {
		right := (ctx.Index() + 1) % ctx.GroupSize()
		for it := 0; it < w.Iterations; it++ {
			ctx.SRound(func() {
				ctx.FpOps(w.TotalFp / int64(ctx.GroupSize()))
				ctx.IntOps(w.TotalInt / int64(ctx.GroupSize()))
				if ctx.GroupSize() > 1 {
					ctx.SendTo(right, it)
					ctx.Recv()
				}
			})
		}
	})
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	rep := g.Report()
	fmt.Printf("\nsimulated %v: measured T=%d E=%.0f P=%.3f (model said T=%.0f E=%.0f)\n",
		tight.Cfg, rep.T(), rep.E(), rep.Power(), tight.T, tight.E)
	fmt.Println()
	fmt.Print(tr.Timeline(64))
}
