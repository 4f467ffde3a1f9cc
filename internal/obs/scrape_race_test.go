// Concurrent-exposition tests: the registry must serve Prometheus
// scrapes while a simulation is mutating it and a stream sink is
// folding tracer events into counters on the simulation's goroutine,
// while another goroutine scrapes — the topology cmd/stampserve runs.
// These tests earn their keep under `go test -race` (the Makefile race
// target includes this package).
package obs_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestConcurrentScrapeDuringRun scrapes the registry in a tight loop
// from a separate goroutine while a jacobi run streams events into a
// sink that updates the same registry — a mid-run /metrics scrape must
// always see a consistent snapshot.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(), Prof: obs.NewProfiler()}

	// Sink: fold streamed events into registry counters, as the serve
	// layer does for its aggregate metrics.
	var events int64
	ob.Trace.StreamTo(func(ev obs.Event) {
		ob.Reg.Counter("test_events_total", "Streamed events by kind.",
			obs.L("kind", ev.Kind)).Inc()
		events++
	})

	// Scraper: continuous Prometheus exposition until stopped.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes int64
	scrapeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf.Reset()
			if err := ob.Reg.WritePrometheus(&buf); err != nil {
				select {
				case scrapeErr <- err:
				default:
				}
				return
			}
			atomic.AddInt64(&scrapes, 1)
		}
	}()

	sys := core.NewSystem(machine.Niagara(), core.WithObs(ob))
	ls := workload.NewLinearSystem(12, 1)
	res, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: 8, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sys.CollectMetrics()
	obs.RecordDrift(ob.Registry(), "jacobi", "T_sround", 1, 1)

	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatalf("scrape failed mid-run: %v", err)
	default:
	}

	if events == 0 {
		t.Fatal("no events streamed")
	}
	if atomic.LoadInt64(&scrapes) == 0 {
		t.Fatal("no scrapes completed")
	}
	if res.Iters != 8 {
		t.Fatalf("jacobi ran %d iters, want 8", res.Iters)
	}

	// The final exposition must carry both the streamed event counters
	// and the collected run metrics.
	var buf bytes.Buffer
	if err := ob.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"test_events_total", "stamp_proc_total_ticks", "stamp_model_drift_relerr"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("final scrape missing %s", want)
		}
	}
}

// TestStreamEventsDeterministic runs the same streamed scenario twice
// and asserts the event sequences are identical — the property that
// makes stampserve's per-run event log cacheable.
func TestStreamEventsDeterministic(t *testing.T) {
	collect := func() []obs.Event {
		ob := &obs.Observer{Trace: obs.NewTracer(), Prof: obs.NewProfiler()}
		var got []obs.Event
		ob.Trace.StreamTo(func(ev obs.Event) { got = append(got, ev) })
		sys := core.NewSystem(machine.Niagara(), core.WithObs(ob))
		ls := workload.NewLinearSystem(8, 3)
		if _, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: 4, Tol: 1e-9}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no events streamed")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Barrier generations 1..5 (one explicit Barrier plus one implicit
	// synch_comm barrier per iteration) must each appear exactly once.
	var gens []int64
	for _, ev := range a {
		if ev.Kind == obs.EvBarrier {
			gens = append(gens, ev.Gen)
		}
	}
	if len(gens) != 5 {
		t.Fatalf("barrier generations %v, want 1..5", gens)
	}
	for i, g := range gens {
		if g != int64(i+1) {
			t.Fatalf("barrier generations %v not consecutive from 1", gens)
		}
	}
}
