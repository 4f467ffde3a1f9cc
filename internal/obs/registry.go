// Package obs is the observability layer of the STAMP simulator: a
// metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus-text exposition), a span-based tracer exporting
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing),
// a virtual-time profiler that decomposes each process's wall time
// into attributable categories, and model-drift gauges comparing the
// closed-form §3.1 predictions against measurements.
//
// Everything is opt-in: a nil Registry / Tracer / Profiler (or a nil
// metric handle) is a valid no-op receiver, so the simulation hot path
// stays allocation-free when observability is disabled.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
)

// MetricType classifies a metric family.
type MetricType int

// Metric family types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

// String returns the Prometheus TYPE name.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return fmt.Sprintf("MetricType(%d)", int(t))
}

// Label is one key=value metric dimension (e.g. proc="jacobi/0").
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sample is one labeled series within a family. mu points at the
// owning registry's lock, so a handle can synchronize its updates with
// concurrent exposition without carrying the whole registry around.
type sample struct {
	mu     *sync.Mutex
	labels []Label
	val    float64
	hist   *stats.Histogram
}

// family is one named metric with its labeled samples.
type family struct {
	name, help string
	typ        MetricType
	bounds     []float64 // histogram bucket bounds
	samples    map[string]*sample
	order      []string // label-key insertion order, sorted at export
}

// Registry holds metric families. The zero value is unusable; use
// NewRegistry. A nil *Registry is a valid disabled registry: every
// lookup returns a nil handle whose operations are no-ops.
//
// A Registry is safe for concurrent use: handle updates (Add, Set,
// Observe, Reset), handle creation and the exposition method
// (WritePrometheus) all serialize on one internal lock, so a scrape
// taken while a simulation is publishing sees a consistent
// point-in-time snapshot — never a half-applied update. The disabled
// (nil) path takes no lock and stays allocation-free.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// labelKey renders labels canonically (sorted by key) for map lookup.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or creates the (family, sample) pair. Callers hold r.mu.
func (r *Registry) lookup(name, help string, typ MetricType, bounds []float64, labels []Label) *sample {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds,
			samples: map[string]*sample{}}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, typ, f.typ))
	}
	key := labelKey(labels)
	s := f.samples[key]
	if s == nil {
		ls := append([]Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		s = &sample{mu: &r.mu, labels: ls}
		if typ == TypeHistogram {
			s.hist = stats.NewHistogram(f.bounds)
		}
		f.samples[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing metric handle. The zero value
// (and any handle from a nil registry) is a disabled no-op.
type Counter struct{ s *sample }

// Counter finds or creates a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	if r == nil {
		return Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Counter{r.lookup(name, help, TypeCounter, nil, labels)}
}

// Add increments the counter by d (no-op when disabled; negative
// deltas panic — counters only go up).
func (c Counter) Add(d float64) {
	if c.s == nil {
		return
	}
	if d < 0 {
		panic("obs: counter decremented")
	}
	c.s.mu.Lock()
	c.s.val += d
	c.s.mu.Unlock()
}

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count (0 when disabled).
func (c Counter) Value() float64 {
	if c.s == nil {
		return 0
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.val
}

// Gauge is a set-anywhere metric handle. The zero value is a disabled
// no-op.
type Gauge struct{ s *sample }

// Gauge finds or creates a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	if r == nil {
		return Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Gauge{r.lookup(name, help, TypeGauge, nil, labels)}
}

// Set stores v (no-op when disabled).
func (g Gauge) Set(v float64) {
	if g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// Add adjusts the gauge by d.
func (g Gauge) Add(d float64) {
	if g.s == nil {
		return
	}
	g.s.mu.Lock()
	g.s.val += d
	g.s.mu.Unlock()
}

// Value returns the current value (0 when disabled).
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.val
}

// Histogram is a fixed-bucket distribution handle backed by
// stats.Histogram. The zero value is a disabled no-op.
type Histogram struct{ s *sample }

// Histogram finds or creates a histogram series. The first
// registration of a name fixes its bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Histogram{r.lookup(name, help, TypeHistogram, bounds, labels)}
}

// Observe records one sample (no-op when disabled).
func (h Histogram) Observe(x float64) {
	if h.s == nil {
		return
	}
	h.s.mu.Lock()
	h.s.hist.Observe(x)
	h.s.mu.Unlock()
}

// Reset clears the histogram's observations, keeping its bounds — for
// collectors that rebuild a distribution from scratch idempotently.
func (h Histogram) Reset() {
	if h.s == nil {
		return
	}
	h.s.mu.Lock()
	h.s.hist.Reset()
	h.s.mu.Unlock()
}

// Sketch returns the underlying histogram (nil when disabled). The
// returned histogram is not synchronized — read it only after the
// writers have quiesced (post-run analysis), or via WritePrometheus,
// which snapshots under the registry lock.
func (h Histogram) Sketch() *stats.Histogram {
	if h.s == nil {
		return nil
	}
	return h.s.hist
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels renders {k="v",...} (empty string for no labels), with
// an optional extra label appended (used for histogram le).
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// fnum renders a metric value the way Prometheus expects (shortest
// round-trip form).
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes the registry in the Prometheus text
// exposition format, families and series in deterministic order. The
// whole write happens under the registry lock, so the scrape is a
// consistent snapshot even while a simulation is publishing; pass a
// buffer (not a slow network writer) when holding updates back
// matters.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			s := f.samples[key]
			if f.typ != TypeHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), fnum(s.val)); err != nil {
					return err
				}
				continue
			}
			var cum int64
			for i, bound := range s.hist.Bounds {
				cum += s.hist.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, renderLabels(s.labels, L("le", fnum(bound))), cum); err != nil {
					return err
				}
			}
			cum += s.hist.Counts[len(s.hist.Bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, renderLabels(s.labels, L("le", "+Inf")), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), fnum(s.hist.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), s.hist.N); err != nil {
				return err
			}
		}
	}
	return nil
}
