// Command perfbench is the repository's benchmark. It drives three
// workloads through the public entry points the layers export, checks
// every operation's output, and prints one JSON result line:
//
//	perfbench --workload suite|stm-hot|serve-sweep --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) prints the per-layer metrics. run.sh builds this
// command and stampserve from the checkout and runs it; README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed     int64
	duration time.Duration
	trace    bool
	buildDir string   // holds the stampserve binary and the span files
	spans    *spanLog // nil on an untraced run
}

// runContext is the host and input a result was measured with.
type runContext struct {
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	SeedUsed   bool    `json:"seed_used"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

type workloadDef struct {
	name     string
	usesSeed bool
	run      func(context.Context, config) (*result, error)
}

var workloads = []workloadDef{
	{"suite", false, runSuite},
	{"stm-hot", true, runSTMHot},
	{"serve-sweep", true, runServeSweep},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: suite | stm-hot | serve-sweep")
	seed := fs.Int64("seed", 1, "input seed (suite ignores it)")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: print end-to-end metrics; 1: traced run, print per-layer metrics")
	buildDir := fs.String("build-dir", ".bench_build", "directory holding the stampserve binary; span files are written here")
	commit := fs.String("commit", "unknown", "git commit of the code under test, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(names, " | "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		buildDir: *buildDir,
	}
	if cfg.trace {
		cfg.spans = newSpanLog()
	}
	rc := runContext{
		Commit:     *commit,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   w.name,
		Seed:       *seed,
		SeedUsed:   w.usesSeed,
		Seconds:    *seconds,
		Trace:      cfg.trace,
	}

	res, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	spansPath := filepath.Join(*buildDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	if err := cfg.spans.write(spansPath, rc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return 1
	}
	line, err := json.Marshal(map[string]runContext{"context": rc})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := writeResult(os.Stdout, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// loop calls pass with 0, 1, 2, … until d has elapsed and at least
// minPasses passes have run. It stops early, with ctx's error, when ctx
// is done.
func loop(ctx context.Context, d time.Duration, minPasses int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

// seconds returns the time elapsed since t in seconds.
func seconds(t time.Time) float64 { return time.Since(t).Seconds() }
