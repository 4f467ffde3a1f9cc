// Command stampbench regenerates the paper's evaluation artifacts:
// every table, figure and §4 analytical derivation has a registered
// experiment that runs deterministic simulations and prints the same
// rows/series the paper reports, plus pass/fail claim checks.
//
// Usage:
//
//	stampbench                  # run everything
//	stampbench -experiment bank # run one experiment
//	stampbench -list            # list experiment ids
//	stampbench -parallel 8      # run the suite on 8 workers (0 = NumCPU)
//	stampbench -metrics-out DIR # also write DIR/<id>.prom per experiment
//
// -parallel spreads whole experiments over workers. Independently of
// it, each experiment that builds several Systems (apsp, recovery,
// jacobi, bank, airline, fabric, table1, faults, managers) runs those
// cells on GOMAXPROCS goroutines. Parallelism changes only wall-clock
// time: every System simulates on its own kernel, so virtual-time
// results are identical at any worker count and any GOMAXPROCS
// (internal/experiments' golden tests enforce this).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/racedet"
)

func main() {
	exp := flag.String("experiment", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	parallel := flag.Int("parallel", 1, "worker goroutines for the full suite (0 = one per CPU; ignored with -experiment)")
	metricsDir := flag.String("metrics-out", "", "write one Prometheus-text metric dump per experiment into this directory")
	doRace := flag.Bool("race", false, "attach the model-level race detector to every experiment; exit 1 if any race is found")
	flag.Parse()

	var raceMu sync.Mutex
	var races []string
	if *doRace {
		core.AddGlobalOption(func(sys *core.System) {
			d := racedet.Attach(sys)
			d.OnRace = func(r *racedet.Report) {
				raceMu.Lock()
				races = append(races, r.String())
				raceMu.Unlock()
			}
		})
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-14s %s\n", id, experiments.Title(id))
		}
		return
	}

	var results []experiments.Result
	if *exp != "" {
		r, err := experiments.Run(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		results = append(results, r)
	} else {
		results = experiments.RunAllParallel(*parallel)
	}

	failed := 0
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, r := range results {
			fmt.Println(r)
		}
	}
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, r := range results {
			if err := experiments.DumpMetrics(*metricsDir, r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	for _, r := range results {
		if !r.Passed() {
			failed++
			fmt.Fprintf(os.Stderr, "experiment %s has failing checks\n", r.ID)
		}
	}
	if *doRace {
		raceMu.Lock()
		sort.Strings(races) // stable across -parallel worker counts
		for _, r := range races {
			fmt.Fprint(os.Stderr, r)
		}
		n := len(races)
		raceMu.Unlock()
		if n > 0 {
			fmt.Fprintf(os.Stderr, "stampbench: %d model-level race(s) detected\n", n)
			os.Exit(1)
		}
		fmt.Println("racedet: suite race-clean")
	}
	if failed > 0 {
		os.Exit(1)
	}
}
