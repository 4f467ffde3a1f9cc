package obs

import "repro/internal/sim"

// Event kinds a streaming tracer hands to its sink. Span events
// mirror the tracer's span lifecycle; the rest are first-class progress
// signals the instrumented layers emit (core barriers, the checkpoint
// controller, the fault planner, the profiler).
const (
	// EvSpanOpen / EvSpanClose bracket a complete span (Begin/End).
	EvSpanOpen  = "span_open"
	EvSpanClose = "span_close"
	// EvInstant is a point occurrence (Tracer.Instant).
	EvInstant = "instant"
	// EvBarrier marks one group-barrier generation: the last arriver
	// emits it the moment the barrier trips, with Gen = the generation
	// just completed and Detail = the group name.
	EvBarrier = "barrier"
	// EvCkpt marks a sealed checkpoint: every member has contributed and
	// the snapshot is durably saved. Gen is the commit generation.
	EvCkpt = "ckpt"
	// EvFault marks a fired fault-plan event (e.g. a scheduled core
	// failure), emitted after its effects (kills) are applied.
	EvFault = "fault"
	// EvProfile carries the fleet-wide profiler category deltas
	// accumulated since the previous EvProfile, emitted at each barrier
	// generation while streaming.
	EvProfile = "profile"
)

// Event is one streamed telemetry occurrence. The tracer leaves Seq
// zero; the sink numbers each event by its place in the log it keeps
// (stampserve's run log numbers them gaplessly from 1), so consumers
// can detect ordering and resume. All times are virtual ticks: an event
// stream is as deterministic as the simulation that produced it.
type Event struct {
	Seq    int64    `json:"seq"`
	At     sim.Time `json:"at"`
	Kind   string   `json:"kind"`
	Proc   string   `json:"proc,omitempty"`
	Cat    string   `json:"cat,omitempty"`
	Name   string   `json:"name,omitempty"`
	Detail string   `json:"detail,omitempty"`
	Span   SpanID   `json:"span,omitempty"`
	Parent SpanID   `json:"parent,omitempty"`
	Gen    int64    `json:"gen,omitempty"`
}

// StreamTo attaches (or, with nil, detaches) a sink. Every subsequent
// span open/close/instant and every Emit calls it with the event, on
// the goroutine running the simulation, before the instrumented
// operation continues. The sink costs no virtual time, so nothing it
// does on the host can perturb the simulation's results, but the run
// waits for it: it should take at most a short lock (stampserve's sink
// appends the encoded event to the run's log). No-op on a nil tracer.
func (t *Tracer) StreamTo(sink func(Event)) {
	if t == nil {
		return
	}
	t.sink = sink
}

// Streaming reports whether a sink is attached. Instrumented layers
// guard their event construction (which may format strings) behind
// this, so a non-streaming tracer pays nothing extra.
func (t *Tracer) Streaming() bool { return t != nil && t.sink != nil }

// Emit hands ev to the attached sink on the calling goroutine. No-op
// when no sink is attached (or on a nil tracer).
func (t *Tracer) Emit(ev Event) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink(ev)
}
