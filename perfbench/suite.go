package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// goldenDir holds the committed output of every experiment.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// runSuite is the suite workload: a closed loop over every registered
// experiment in id order, one at a time, each op checked against its
// committed golden. The paper fixes the inputs, so the seed is unused.
// Every pass is set up afresh (the goldens are loaded again, then the
// heap is collected), so setup_s is a median over the whole run.
//
// A traced run alternates plain and traced passes. A traced pass wraps
// each experiments.Run in a span and reads the counters of every System
// the experiment built; plain passes give the end-to-end numbers and the
// base of the tracing overhead.
func runSuite(ctx context.Context, cfg config) (*result, error) {
	ids := experiments.IDs()
	res := newResult()

	capture := &systemCapture{}
	if cfg.trace {
		defer core.AddGlobalOption(capture.option)()
	}
	var (
		setups        []float64 // seconds
		plain, traced []float64 // pass walls, seconds
		latencies     []float64 // plain ops, milliseconds
		opMS          = map[string][]float64{}
		counts        layerCounts
		rt            goRuntime
	)
	kinds := 1
	if cfg.trace {
		kinds = 2
	}
	err := loop(ctx, cfg.duration, 2*kinds, func(i int) error {
		t := time.Now()
		goldens, err := loadGoldens(ids)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(t))
		runtime.GC()

		tracing := i%kinds == 1
		var spans *spanLog
		if tracing {
			spans = cfg.spans
			capture.setOn(true)
			defer capture.setOn(false)
		} else if cfg.trace {
			defer rt.bracket()()
		}
		pass := spans.begin("suite.pass", 0)
		start := time.Now()
		var pc layerCounts
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			t := time.Now()
			sp := spans.begin("experiments.Run/"+id, pass)
			err := suiteOp(id, goldens[id])
			ms := spans.end(sp)
			lat := float64(time.Since(t).Nanoseconds()) / 1e6
			res.record("suite/"+id, err)
			if tracing {
				opMS[id] = append(opMS[id], ms)
				pc.add(capture.drain())
			} else {
				latencies = append(latencies, lat)
			}
		}
		wall := seconds(start)
		spans.end(pass)
		if tracing {
			traced = append(traced, wall)
			counts = pc
		} else {
			plain = append(plain, wall)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := res.metrics
	if err := setBatchEndToEnd(m, setups, plain, latencies); err != nil {
		return nil, err
	}
	if cfg.trace {
		for _, id := range ids {
			m[experimentMetric(id)] = median(opMS[id])
		}
		counts.set(m)
		m["sim.ns_per_event"] = ratio(median(plain)*1e9, float64(counts.events))
		rt.set(m)
		m["bench.trace_overhead_ratio"] = ratio(median(traced), median(plain))
	}
	return res, nil
}

func loadGoldens(ids []string) (map[string]string, error) {
	g := make(map[string]string, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("loading goldens: %w", err)
		}
		g[id] = string(b)
	}
	return g, nil
}

// suiteOp runs one experiment and checks its result against golden. A
// panic in the experiment is returned as an error, so that it counts as
// one failed op.
func suiteOp(id, golden string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	r, err := experiments.Run(id)
	if err != nil {
		return err
	}
	return checkExperiment(r, golden)
}

// checkExperiment verifies one suite op: the rendered output equals the
// committed golden byte for byte and every claim check passes.
func checkExperiment(r experiments.Result, golden string) error {
	if got := r.String(); got != golden {
		n := 0
		for n < len(got) && n < len(golden) && got[n] == golden[n] {
			n++
		}
		return fmt.Errorf("output differs from its golden at byte %d", n)
	}
	if !r.Passed() {
		return errors.New("a claim check failed")
	}
	return nil
}
