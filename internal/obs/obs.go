package obs

// Observer bundles the three observability sinks a simulation can
// carry: the metrics registry, the span tracer and the virtual-time
// profiler. Any field may be nil — each layer is independently opt-in
// and every sink's nil form is a no-op, so a partially-filled
// Observer costs only what it records.
type Observer struct {
	Reg   *Registry
	Trace *Tracer
	Prof  *Profiler
}

// NewObserver returns an Observer with every sink enabled.
func NewObserver() *Observer {
	return &Observer{Reg: NewRegistry(), Trace: NewTracer(), Prof: NewProfiler()}
}

// Registry returns the metrics registry (nil when absent); safe on a
// nil Observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Tracer returns the span tracer (nil when absent); safe on a nil
// Observer.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Profiler returns the profiler (nil when absent); safe on a nil
// Observer.
func (o *Observer) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.Prof
}
