// Command stampsim runs one of the paper's example workloads on a
// configured simulated CMP/CMT machine and prints the full cost report
// (per-process and group T/E/P plus the §2.1 metrics).
//
// Usage:
//
//	stampsim -app jacobi -n 32 -iters 6
//	stampsim -app apsp -n 16 -mode async -skew 4
//	stampsim -app bank -n 64 -procs 16 -manager timestamp
//	stampsim -app airline -n 8 -procs 8 -policy partial
//	stampsim -machine generic -app jacobi -n 16
//
// Observability:
//
//	stampsim -app jacobi -n 32 -trace-out /tmp/t.json   # Perfetto/chrome://tracing
//	stampsim -app jacobi -n 32 -metrics-out /tmp/m.prom # Prometheus text
//	stampsim -app jacobi -n 32 -profile                 # per-process time breakdown
//
// Checkpoint/restore (jacobi with -iters > 0):
//
//	stampsim -app jacobi -n 32 -iters 12 -ckpt-dir /tmp/ck -ckpt-every 2  # checkpoint
//	stampsim -app jacobi -n 32 -iters 12 -ckpt-dir /tmp/ck -ckpt-every 2 -ckpt-restore
//	                                     # restore the latest checkpoint and replay
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps/airline"
	"repro/internal/apps/apsp"
	"repro/internal/apps/bank"
	"repro/internal/apps/jacobi"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/racedet"
	"repro/internal/stm"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "jacobi", "workload: jacobi | apsp | bank | airline")
	mach := flag.String("machine", "niagara", "machine preset: niagara | generic | single")
	n := flag.Int("n", 16, "problem size (equations / vertices / accounts / sectors)")
	procs := flag.Int("procs", 8, "worker processes (bank, airline)")
	iters := flag.Int("iters", 0, "fixed iterations (jacobi; 0 = run to convergence)")
	mode := flag.String("mode", "async", "apsp mode: async | bulksync")
	skew := flag.Float64("skew", 1, "apsp: slowdown factor of process 0")
	manager := flag.String("manager", "timestamp", "contention manager: passive | aggressive | karma | timestamp")
	policy := flag.String("policy", "partial", "airline policy: partial | strict")
	seed := flag.Int64("seed", 1, "workload seed")
	doTrace := flag.Bool("trace", false, "record causal spans; print the timeline and the last 40 spans")
	traceOut := flag.String("trace-out", "", "write causal spans as Chrome trace-event JSON to this file")
	metricsOut := flag.String("metrics-out", "", "write run metrics to this file as Prometheus text")
	doProfile := flag.Bool("profile", false, "print the per-process virtual-time breakdown and hotspots")
	doRace := flag.Bool("race", false, "detect model-level data races (happens-before over virtual time); exit 1 if one is found")
	ckptDir := flag.String("ckpt-dir", "", "checkpoint directory (jacobi with -iters > 0); enables checkpointing")
	ckptEvery := flag.Int("ckpt-every", 2, "checkpoint every N iterations (with -ckpt-dir)")
	ckptRestore := flag.Bool("ckpt-restore", false, "restore the latest checkpoint from -ckpt-dir and replay to completion")
	flag.Parse()

	cfg, err := machine.Preset(*mach)
	exitIf(err)
	mgr, err := stm.ManagerByName(*manager)
	exitIf(err)

	var opts []core.Option
	opts = append(opts, core.WithContentionManager(mgr))
	ob := &obs.Observer{}
	if *metricsOut != "" {
		ob.Reg = obs.NewRegistry()
	}
	if *doTrace || *traceOut != "" {
		ob.Trace = obs.NewTracer()
	}
	if *doProfile || *metricsOut != "" {
		ob.Prof = obs.NewProfiler()
	}
	if ob.Enabled() {
		opts = append(opts, core.WithObs(ob))
	}
	sys := core.NewSystem(cfg, opts...)
	var det *racedet.Detector
	if *doRace {
		det = racedet.Attach(sys)
	}
	fmt.Println(cfg.Describe())

	switch *app {
	case "jacobi":
		ls := workload.NewLinearSystem(*n, *seed)
		var ck *ckpt.Controller
		if *ckptDir != "" {
			if *iters == 0 {
				fail("checkpointing requires a fixed iteration count (-iters > 0)")
			}
			var err error
			if *ckptRestore {
				ck, err = ckpt.Resume(*ckptDir, *ckptEvery)
			} else {
				ck, err = ckpt.New(*ckptDir, *ckptEvery)
			}
			exitIf(err)
			defer ck.Close()
			if ck.Resuming() {
				fmt.Printf("restoring checkpoint generation %d from %s\n", ck.ResumedGeneration(), *ckptDir)
			}
		} else if *ckptRestore {
			fail("-ckpt-restore requires -ckpt-dir")
		}
		res, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: *iters, Tol: 1e-9, Ckpt: ck})
		exitIf(err)
		fmt.Printf("jacobi %v: %d iterations, residual %.3g\n",
			jacobi.DefaultAttrs, res.Iters, ls.Residual(res.X))
		if ck != nil && len(ck.Written()) > 0 {
			fmt.Printf("wrote %d checkpoint(s), latest generation %d, to %s\n",
				len(ck.Written()), ck.LastGeneration(), *ckptDir)
		}
		model := jacobi.Model(sys, res.Group, *n)
		mt, me := jacobi.MeasuredRound(res.Group, 1)
		fmt.Printf("S-round: measured T=%d E=%.0f | predicted T=%.0f E=%.0f\n",
			mt, me, model.TSRound(), model.ESRound())
		obs.RecordDrift(ob.Registry(), "jacobi", "T_sround", model.TSRound(), float64(mt))
		obs.RecordDrift(ob.Registry(), "jacobi", "E_sround", model.ESRound(), me)
		if mt > 0 && model.TSRound() > 0 {
			obs.RecordDrift(ob.Registry(), "jacobi", "P_sround",
				model.ESRound()/model.TSRound(), me/float64(mt))
		}
		fmt.Print(res.Report().Table())

	case "apsp":
		g := workload.NewRandomGraph(*n, 0.25, 40, *seed)
		m := apsp.Async
		if *mode == "bulksync" {
			m = apsp.BulkSync
		}
		var slow []float64
		if *skew > 1 {
			slow = make([]float64, *n)
			for i := range slow {
				slow[i] = 1
			}
			slow[0] = *skew
		}
		res, err := apsp.Run(sys, apsp.Config{Graph: g, Mode: m, SlowFactor: slow})
		exitIf(err)
		ok := apsp.Equal(res.Dist, apsp.FloydWarshall(g))
		fmt.Printf("apsp %v mode=%v: %d epochs, %d total rounds, correct=%v\n",
			apsp.DefaultAttrs, m, res.Epochs, res.TotalRounds(), ok)
		if model, mt, me, ok := apsp.Model(res.Group); ok {
			obs.RecordDrift(ob.Registry(), "apsp", "T_sround", model.TSRoundEffective(), mt)
			obs.RecordDrift(ob.Registry(), "apsp", "E_sround_upper", model.ESRoundUpper(), me)
		}
		fmt.Print(res.Report().Table())

	case "bank":
		wl := workload.NewBank(*n, 8**procs, 1000, 0.5, *seed)
		res, err := bank.Run(sys, wl, *procs, nil)
		exitIf(err)
		fmt.Printf("bank %v: %d succeeded, %d declined, abort rate %.3f, throughput %.3f\n",
			bank.DefaultAttrs, res.Succeeded, res.Declined, res.TM.AbortRate(), res.Throughput())
		fmt.Print(res.Report().Table())

	case "airline":
		wl := workload.NewAirline(*n, 4, 10**procs, *seed)
		pol := airline.Partial
		if *policy == "strict" {
			pol = airline.Strict
		}
		res, err := airline.Run(sys, wl, *procs, pol)
		exitIf(err)
		fmt.Printf("airline %v policy=%v: %v, %d legs committed, success rate %.3f\n",
			airline.DefaultAttrs, pol, res.Outcomes, res.LegsCommitted, res.SuccessRate())
		fmt.Print(res.Report().Table())

	default:
		fail("unknown app %q", *app)
	}

	if *doTrace {
		fmt.Println()
		fmt.Print(ob.Tracer().Timeline(72))
		spans := ob.Tracer().Spans()
		for _, s := range spans[max(len(spans)-40, 0):] {
			line := fmt.Sprintf("t=%-8d T=%-6d %-14s %-8s %-10s %s", s.Start, s.T(), s.Proc, s.Cat, s.Name, s.Detail)
			fmt.Println(strings.TrimRight(line, " "))
		}
	}

	if *traceOut != "" {
		writeFile(*traceOut, func(f *os.File) error { return ob.Tracer().WriteChrome(f) })
		fmt.Printf("wrote Chrome trace (Perfetto / chrome://tracing) to %s\n", *traceOut)
	}
	if *metricsOut != "" {
		sys.CollectMetrics()
		writeFile(*metricsOut, func(f *os.File) error { return ob.Registry().WritePrometheus(f) })
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *doProfile {
		fmt.Println()
		fmt.Print(ob.Profiler().Table())
		fmt.Print(ob.Profiler().Hotspots(5))
	}
	if *doRace {
		fmt.Println()
		fmt.Print(det.Text())
		if det.Report() != nil {
			os.Exit(1)
		}
	}
}

// writeFile creates path and runs emit on it, exiting on error.
func writeFile(path string, emit func(*os.File) error) {
	f, err := os.Create(path)
	exitIf(err)
	if err := emit(f); err != nil {
		f.Close()
		fail("%v", err)
	}
	exitIf(f.Close())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func exitIf(err error) {
	if err != nil {
		fail("%v", err)
	}
}
