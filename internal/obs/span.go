package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// SpanID identifies a span within one Tracer; 0 means "no span" (root).
type SpanID int64

// SpanKind separates duration spans from point events.
type SpanKind int

// Span kinds.
const (
	SpanComplete SpanKind = iota // has Start and End
	SpanInstant                  // a point event (End == Start)
)

// Span is one causally-nested slice of a process's execution:
// process → S-unit → S-round → op, linked by Parent IDs.
type Span struct {
	ID     SpanID
	Parent SpanID
	Proc   string
	Cat    string // "proc" | "unit" | "round" | "msg" | "tx" | "barrier" | "app"
	Name   string
	Detail string
	Kind   SpanKind
	Start  sim.Time
	End    sim.Time // == Start while open or for instants
	open   bool
}

// T returns the span duration.
func (s Span) T() sim.Time { return s.End - s.Start }

// Tracer records causal spans. A nil *Tracer is a valid disabled
// tracer (Begin returns 0, End/Instant are no-ops). Not safe for host
// concurrency — the simulation kernel is sequential by construction.
//
// A tracer can additionally stream: StreamTo attaches a sink function,
// and every span open/close/instant (plus the barrier, checkpoint,
// fault and profiler events the instrumented layers emit) is handed to
// it as it happens, in deterministic order, on the simulation's own
// goroutine. With no sink attached nothing is published and the
// disabled (nil) tracer path stays allocation-free.
type Tracer struct {
	spans []Span
	sink  func(Event)
}

// NewTracer returns an empty enabled span tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether spans are being kept.
func (t *Tracer) Enabled() bool { return t != nil }

// Begin opens a span under parent (0 for a root span) and returns its
// ID.
func (t *Tracer) Begin(at sim.Time, proc, cat, name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Proc: proc, Cat: cat, Name: name,
		Kind: SpanComplete, Start: at, End: at, open: true,
	})
	if t.sink != nil {
		t.Emit(Event{At: at, Kind: EvSpanOpen, Proc: proc, Cat: cat,
			Name: name, Span: id, Parent: parent})
	}
	return id
}

// End closes the span. Closing span 0 (or on a nil tracer) is a no-op.
func (t *Tracer) End(id SpanID, at sim.Time) {
	if t == nil || id <= 0 || int(id) > len(t.spans) {
		return
	}
	s := &t.spans[id-1]
	if !s.open {
		return
	}
	s.End = at
	s.open = false
	if t.sink != nil {
		t.Emit(Event{At: at, Kind: EvSpanClose, Proc: s.Proc, Cat: s.Cat,
			Name: s.Name, Span: id, Parent: s.Parent})
	}
}

// Instant records a point event under parent.
func (t *Tracer) Instant(at sim.Time, proc, cat, name, detail string, parent SpanID) {
	if t == nil {
		return
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Proc: proc, Cat: cat, Name: name,
		Detail: detail, Kind: SpanInstant, Start: at, End: at,
	})
	if t.sink != nil {
		t.Emit(Event{At: at, Kind: EvInstant, Proc: proc, Cat: cat,
			Name: name, Detail: detail, Span: id, Parent: parent})
	}
}

// Spans returns all recorded spans in creation order. Still-open spans
// report End == their Start.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// chromeEvent is one Chrome trace-event JSON object. Field order here
// fixes the exported key order (golden-file stable).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  *int64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the containing object Perfetto / chrome://tracing load.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the spans as Chrome trace-event JSON: one
// complete ("X") event per span with ts/dur in virtual ticks
// (rendered as microseconds by the viewers), instant ("i") events for
// point occurrences, and thread-name metadata so each simulated
// process gets its own named track. The output loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var evs []chromeEvent
	tids := map[string]int{}
	tidOf := func(proc string) int {
		id, ok := tids[proc]
		if !ok {
			id = len(tids) + 1
			tids[proc] = id
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
				Args: map[string]string{"name": proc},
			})
		}
		return id
	}
	for _, s := range t.Spans() {
		tid := tidOf(s.Proc)
		args := map[string]string{
			"id":     fmt.Sprintf("%d", s.ID),
			"parent": fmt.Sprintf("%d", s.Parent),
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		switch s.Kind {
		case SpanInstant:
			evs = append(evs, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "i", Ts: int64(s.Start),
				Pid: 1, Tid: tid, S: "t", Args: args,
			})
		default:
			dur := int64(s.End - s.Start)
			evs = append(evs, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X", Ts: int64(s.Start),
				Dur: &dur, Pid: 1, Tid: tid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// Timeline renders a per-process lane chart of width columns: '#'
// inside a closed S-round span, '-' elsewhere within the process's
// spans (its proc span, when one was recorded), '.' outside them. Lanes
// sort by process name.
func (t *Tracer) Timeline(width int) string {
	if width < 10 {
		width = 10
	}
	spans := t.Spans()
	if len(spans) == 0 {
		return "(no events)\n"
	}
	type lane struct {
		first, last sim.Time
		rounds      [][2]sim.Time
	}
	lanes := map[string]*lane{}
	tMin, tMax := spans[0].Start, spans[0].End
	for _, s := range spans {
		tMin, tMax = min(tMin, s.Start), max(tMax, s.End)
		l := lanes[s.Proc]
		if l == nil {
			l = &lane{first: s.Start, last: s.End}
			lanes[s.Proc] = l
		}
		l.first, l.last = min(l.first, s.Start), max(l.last, s.End)
		if s.Cat == "round" && !s.open {
			l.rounds = append(l.rounds, [2]sim.Time{s.Start, s.End})
		}
	}
	span := max(tMax-tMin, 1)
	col := func(at sim.Time) int {
		return min(int(int64(at-tMin)*int64(width-1)/int64(span)), width-1)
	}

	names := make([]string, 0, len(lanes))
	for n := range lanes {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "timeline t=[%d,%d]\n", tMin, tMax)
	for _, n := range names {
		l := lanes[n]
		row := []byte(strings.Repeat(".", width))
		for i := col(l.first); i <= col(l.last); i++ {
			row[i] = '-'
		}
		for _, r := range l.rounds {
			for i := col(r[0]); i <= col(r[1]); i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-14s |%s|\n", n, row)
	}
	return b.String()
}
