// Command stampsim runs one of the paper's example workloads on a
// configured simulated CMP/CMT machine and prints the full cost report
// (per-process and group T/E/P plus the §2.1 metrics).
//
// Its knobs fill a scenario spec that runs through stampserve's runner
// (serve.Execute), with stampserve's defaults and validation
// (serve.Spec.Normalize): a knob the app does not take is an error.
//
// Usage:
//
//	stampsim -app jacobi -n 32 -iters 6
//	stampsim -app apsp -n 16 -mode async
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"repro/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one stampsim command line: the normalized scenario and the
// options around its run.
type cli struct {
	spec                              serve.Spec
	trace, profile, race, ckptRestore bool
	traceOut, metricsOut, ckptDir     string
}

// parse reads a command line. The knobs go straight into a zero
// serve.Spec, so Normalize is their only table of defaults. A bad
// command line is reported on stderr.
func parse(args []string, stderr io.Writer) (c cli, err error) {
	fs := flag.NewFlagSet("stampsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.spec.App, "app", "", "workload: jacobi | apsp | bank | airline")
	fs.StringVar(&c.spec.Machine, "machine", "", "machine preset: niagara | generic | single")
	fs.IntVar(&c.spec.N, "n", 0, "problem size (equations / vertices / accounts / sectors)")
	fs.IntVar(&c.spec.Procs, "procs", 0, "worker processes (bank, airline)")
	fs.IntVar(&c.spec.Iters, "iters", 0, "fixed iterations (jacobi; 0 = run to convergence)")
	fs.StringVar(&c.spec.Mode, "mode", "", "apsp mode: async | bulksync")
	fs.StringVar(&c.spec.Manager, "manager", "", "contention manager (bank, airline): passive | aggressive | karma | timestamp")
	fs.StringVar(&c.spec.Policy, "policy", "", "airline policy: partial | strict")
	fs.Int64Var(&c.spec.Seed, "seed", 0, "workload seed")
	fs.BoolVar(&c.trace, "trace", false, "record causal spans; print the timeline and the last 40 spans")
	fs.StringVar(&c.traceOut, "trace-out", "", "write causal spans as Chrome trace-event JSON to this file")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write run metrics to this file as Prometheus text")
	fs.BoolVar(&c.profile, "profile", false, "print the per-process virtual-time breakdown and hotspots")
	fs.BoolVar(&c.race, "race", false, "detect model-level data races (happens-before over virtual time); exit 1 if one is found")
	fs.StringVar(&c.ckptDir, "ckpt-dir", "", "checkpoint directory (jacobi with -iters > 0); enables checkpointing")
	ckptEvery := fs.Int("ckpt-every", 0, "checkpoint every N iterations (with -ckpt-dir)")
	fs.BoolVar(&c.ckptRestore, "ckpt-restore", false, "restore the latest checkpoint from -ckpt-dir and replay to completion")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of stampsim (an unset knob takes its default, listed per app below):")
		fs.PrintDefaults()
		for _, app := range []string{"jacobi", "apsp", "bank", "airline"} {
			def, _ := serve.Spec{App: app}.Normalize()
			b, _ := json.Marshal(def)
			fmt.Fprintf(stderr, "  %s\n", b)
		}
	}
	if err := fs.Parse(args); err != nil {
		return c, err // fs has reported it
	}
	switch {
	case c.ckptDir != "":
		c.spec.Ckpt = &serve.CkptSpec{Every: *ckptEvery}
	case c.ckptRestore:
		err = errors.New("-ckpt-restore requires -ckpt-dir")
	case *ckptEvery != 0:
		err = errors.New("-ckpt-every requires -ckpt-dir")
	}
	if err == nil {
		c.spec, err = c.spec.Normalize()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
	}
	return c, err
}

// run is stampsim on the given arguments and output streams. It
// returns the exit code: 1 when -race finds a race, 2 for a bad
// command line or a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parse(args, stderr)
	if err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	// Attach only the sinks the flags ask for: each costs host time.
	ob := &obs.Observer{}
	if c.metricsOut != "" {
		ob.Reg = obs.NewRegistry()
	}
	if c.trace || c.traceOut != "" {
		ob.Trace = obs.NewTracer()
	}
	if c.profile || c.metricsOut != "" {
		ob.Prof = obs.NewProfiler()
	}
	var det *racedet.Detector
	if c.race {
		defer core.AddGlobalOption(func(sys *core.System) { det = racedet.Attach(sys) })()
	}
	cfg, _ := machine.Preset(c.spec.Machine) // Normalize has checked it
	fmt.Fprintln(stdout, cfg.Describe())

	var ck *ckpt.Controller
	if c.spec.Ckpt != nil {
		if c.ckptRestore {
			ck, err = ckpt.Resume(c.ckptDir, c.spec.Ckpt.Every)
		} else {
			ck, err = ckpt.New(c.ckptDir, c.spec.Ckpt.Every)
		}
		if err != nil {
			return fail(stderr, err)
		}
		defer ck.Close()
		if ck.Resuming() {
			fmt.Fprintf(stdout, "restoring checkpoint generation %d from %s\n", ck.ResumedGeneration(), c.ckptDir)
		}
	}

	res := serve.Execute(c.spec, ob, ck)
	if res.Status != "done" {
		return fail(stderr, res.Error)
	}
	switch c.spec.App {
	case "jacobi":
		fmt.Fprintf(stdout, "jacobi %v: %d iterations, residual %.3g\n", jacobi.DefaultAttrs, res.Iters, res.Residual)
		if ck != nil && len(ck.Written()) > 0 {
			fmt.Fprintf(stdout, "wrote %d checkpoint(s), latest generation %d, to %s\n",
				len(ck.Written()), ck.LastGeneration(), c.ckptDir)
		}
		t, e := res.Drift[0], res.Drift[1] // the runner records T_sround, then E_sround
		fmt.Fprintf(stdout, "S-round: measured T=%.0f E=%.0f | predicted T=%.0f E=%.0f\n",
			t.Measured, e.Measured, t.Predicted, e.Predicted)
	case "apsp":
		fmt.Fprintf(stdout, "apsp %v mode=%s: %d epochs, %d total rounds, correct=%v\n",
			apsp.DefaultAttrs, c.spec.Mode, res.Epochs, res.TotalRounds, *res.Correct)
	case "bank":
		fmt.Fprintf(stdout, "bank %v: %d succeeded, %d declined, abort rate %.3f, throughput %.3f\n",
			bank.DefaultAttrs, res.Succeeded, res.Declined, res.AbortRate, res.Throughput)
	case "airline":
		fmt.Fprintf(stdout, "airline %v policy=%s: %v, %d legs committed, success rate %.3f\n",
			airline.DefaultAttrs, c.spec.Policy, res.Outcomes, res.LegsCommitted, res.SuccessRate)
	}
	fmt.Fprint(stdout, res.Table)

	if c.trace {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, ob.Tracer().Timeline(72))
		spans := ob.Tracer().Spans()
		for _, s := range spans[max(len(spans)-40, 0):] {
			line := fmt.Sprintf("t=%-8d T=%-6d %-14s %-8s %-10s %s", s.Start, s.T(), s.Proc, s.Cat, s.Name, s.Detail)
			fmt.Fprintln(stdout, strings.TrimRight(line, " "))
		}
	}
	if c.traceOut != "" {
		if err := writeFile(c.traceOut, ob.Tracer().WriteChrome); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote Chrome trace (Perfetto / chrome://tracing) to %s\n", c.traceOut)
	}
	if c.metricsOut != "" {
		if err := writeFile(c.metricsOut, ob.Registry().WritePrometheus); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote metrics to %s\n", c.metricsOut)
	}
	if c.profile {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, ob.Profiler().Table())
		fmt.Fprint(stdout, ob.Profiler().Hotspots(5))
	}
	if c.race {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, det.Text())
		if det.Report() != nil {
			return 1
		}
	}
	return 0
}

// writeFile creates path and runs emit on it.
func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail prints msg to stderr and returns exit code 2.
func fail(stderr io.Writer, msg any) int {
	fmt.Fprintln(stderr, msg)
	return 2
}
