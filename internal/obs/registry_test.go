package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "Ops.", L("proc", "p0"))
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value %v, want 3", got)
	}
	g := r.Gauge("temp", "Temp.")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge value %v, want 1", got)
	}
	// Re-lookup returns the same series.
	if got := r.Counter("ops_total", "Ops.", L("proc", "p0")).Value(); got != 3 {
		t.Fatalf("re-lookup value %v, want 3", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter delta did not panic")
		}
	}()
	r.Counter("c", "").Add(-1)
}

func TestTypeReregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry enabled")
	}
	r.Counter("c", "").Inc()
	r.Gauge("g", "").Set(1)
	h := r.Histogram("h", "", []float64{1})
	h.Observe(1)
	h.Reset()
	if h.Sketch() != nil {
		t.Fatal("nil registry histogram has a sketch")
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}

// TestPrometheusExposition pins the exact text-format output:
// families alphabetical, HELP/TYPE headers, labels sorted, histogram
// cumulative buckets with le plus _sum/_count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	// Registered out of alphabetical order on purpose.
	r.Gauge("app_temp", "Temp.").Set(1.5)
	r.Counter("app_ops_total", "Ops.", L("proc", "p0")).Add(3)
	h := r.Histogram("app_lat", "Latency.", []float64{1, 2}, L("proc", "p0"))
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	want := `# HELP app_lat Latency.
# TYPE app_lat histogram
app_lat_bucket{proc="p0",le="1"} 1
app_lat_bucket{proc="p0",le="2"} 2
app_lat_bucket{proc="p0",le="+Inf"} 3
app_lat_sum{proc="p0"} 11
app_lat_count{proc="p0"} 3
# HELP app_ops_total Ops.
# TYPE app_ops_total counter
app_ops_total{proc="p0"} 3
# HELP app_temp Temp.
# TYPE app_temp gauge
app_temp 1.5
`
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", L("k", "a\"b\\c\nd")).Set(1)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `g{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong: %q", b.String())
	}
}

func TestHistogramResetIsIdempotentCollect(t *testing.T) {
	r := NewRegistry()
	fill := func() {
		h := r.Histogram("h", "", []float64{10})
		h.Reset()
		h.Observe(1)
		h.Observe(2)
	}
	fill()
	fill() // collecting twice must not double-count
	if n := r.Histogram("h", "", []float64{10}).Sketch().N; n != 2 {
		t.Fatalf("after two collects N=%d, want 2", n)
	}
}
