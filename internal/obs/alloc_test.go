package obs

import "testing"

// Disabled observability must be free: every handle obtained from a nil
// registry/tracer/profiler no-ops without allocating, so instrumented
// hot paths cost nothing when the user did not ask for observability.
func TestDisabledHandlesAllocateNothing(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1})
	var tr *Tracer
	var pr *Profiler
	p := pr.Proc("w/0")
	snap := p.Snapshot()

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		h.Observe(3)
		p.Charge(CatCompute, 1)
		p.MoveSince(snap, CatTxRetry)
		p.FoldSince(snap, 2, CatTxRetry)
		id := tr.Begin(0, "w/0", "proc", "w/0", 0)
		tr.End(id, 1)
		tr.Instant(0, "w/0", "app", "x", "", 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocated %.1f per run, want 0", allocs)
	}
}

func TestNilObserverAccessorsAllocateNothing(t *testing.T) {
	var ob *Observer
	allocs := testing.AllocsPerRun(100, func() {
		if ob.Registry() != nil || ob.Tracer() != nil || ob.Profiler() != nil {
			panic("nil observer not inert")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil observer accessors allocated %.1f per run, want 0", allocs)
	}
}
