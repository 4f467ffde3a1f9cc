package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// lifecycle event kinds emitted by the server itself (the simulation
// emits the obs.Ev* kinds).
const evRun = "run"

// Submission rejections the HTTP layer maps to distinct status codes:
// a full queue is transient (429 with Retry-After — resubmit once a
// worker drains it), a closing server is terminal for this process
// (503).
var (
	ErrQueueFull    = errors.New("run queue full")
	ErrShuttingDown = errors.New("server is shutting down")
)

// Server is the stampserve run service: a registry of submitted
// scenario runs, a bounded worker pool executing them, a scenario-hash
// result cache, and an aggregate metrics registry scrapeable while
// simulations are in flight.
type Server struct {
	workers int
	logf    func(format string, args ...any)

	mu     sync.Mutex
	seq    int
	runs   map[string]*Run
	order  []string        // run ids in submission order
	byHash map[string]*Run // scenario hash → primary run
	closed bool

	queue chan *Run
	wg    sync.WaitGroup

	reg *obs.Registry
}

// Run is one submitted scenario. A cache-hit run holds a src pointer
// to the primary run of the same scenario hash and owns no execution:
// its events, state and result are the primary's, which is what makes
// resubmissions byte-identical.
//
// The event log holds each event once, as the NDJSON line the stream
// serves: log is the lines back to back, and lines locates each one.
// Appending is the only mutation, so a reader may keep reading bytes
// it sliced under the lock after releasing it.
type Run struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	spec Spec
	src  *Run // non-nil ⇒ cache hit; all state delegates to src

	mu      sync.Mutex
	state   string // "queued" | "running" | "done" | "failed" | "timeout"
	log     []byte
	lines   []logLine
	totals  EventTotals   // the simulation's events counted so far
	wake    chan struct{} // non-nil while a reader waits; closed by the next append or state change
	outcome *outcome
}

// outcome is all a finished run keeps: its result's encoding, which the
// cache serves byte for byte, and its registry (nil for an experiment),
// but not the Result, the tracer or the profiler.
type outcome struct {
	resultJSON []byte
	runReg     *obs.Registry
}

// logLine locates one event's line in a run's log.
type logLine struct {
	end  int    // offset in the log one past the line's '\n'
	kind string // the event's kind, which names it in an SSE stream
}

// New returns a started server with the given worker-pool size.
// logf, when non-nil, receives one line per run state change.
func New(workers int, logf func(format string, args ...any)) *Server {
	return newServer(workers, 1024, logf)
}

// newServer is New with an explicit submit-queue capacity, so tests
// can exercise the queue-full rejection without 1024 submissions.
func newServer(workers, queueCap int, logf func(format string, args ...any)) *Server {
	if workers < 1 {
		workers = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		workers: workers,
		logf:    logf,
		runs:    map[string]*Run{},
		byHash:  map[string]*Run{},
		queue:   make(chan *Run, queueCap),
		reg:     obs.NewRegistry(),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for run := range s.queue {
				s.execute(run)
			}
		}()
	}
	return s
}

// Close drains the queue and stops the workers. Submissions after
// Close are rejected with 503.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// Registry exposes the server-wide metrics registry (for tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// primary resolves the run that owns state: itself, or the cache
// source for a resubmitted scenario.
func (r *Run) primary() *Run {
	if r.src != nil {
		return r.src
	}
	return r
}

// finished reports whether state is terminal.
func finished(state string) bool {
	return state == "done" || state == "failed" || state == "timeout"
}

// snapshot returns the run's state, event count and outcome.
func (r *Run) snapshot() (state string, events int, out *outcome) {
	p := r.primary()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, len(p.lines), p.outcome
}

// since returns the log's lines at positions ≥ from (0-based, clamped
// to the log): their bytes back to back, and the lines themselves (for
// their kinds). The bytes alias the append-only log; the caller writes
// them out after the lock is released. When there is no such line, it
// returns instead a channel that the next append or state change
// closes, or nil once the run is finished: only a reader with nothing
// left to write waits.
func (r *Run) since(from int) (b []byte, lines []logLine, wake <-chan struct{}) {
	p := r.primary()
	p.mu.Lock()
	defer p.mu.Unlock()
	from = min(max(from, 0), len(p.lines))
	if from < len(p.lines) {
		start := 0
		if from > 0 {
			start = p.lines[from-1].end
		}
		return p.log[start:], p.lines[from:], nil
	}
	if !finished(p.state) {
		if p.wake == nil {
			p.wake = make(chan struct{})
		}
		wake = p.wake
	}
	return nil, nil, wake
}

// wakeReaders releases the readers waiting for the log to change.
// Callers hold r.mu.
func (r *Run) wakeReaders() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// appendEvent numbers ev by its position in a primary run's log,
// appends its NDJSON line, counts it and wakes the waiting readers.
func (r *Run) appendEvent(ev obs.Event) {
	r.mu.Lock()
	ev.Seq = int64(len(r.lines) + 1)
	r.log = append(appendEventJSON(r.log, &ev), '\n')
	r.lines = append(r.lines, logLine{end: len(r.log), kind: ev.Kind})
	r.totals.count(&ev)
	r.wakeReaders()
	r.mu.Unlock()
}

// setState transitions a primary run and wakes the waiting readers. A
// terminal state completes the log, which then gives back the capacity
// append grew ahead of it.
func (r *Run) setState(state string, out *outcome) {
	r.mu.Lock()
	r.state = state
	if out != nil {
		r.outcome = out
	}
	if finished(state) {
		r.log = slices.Clone(r.log)
		r.lines = slices.Clone(r.lines)
	}
	r.wakeReaders()
	r.mu.Unlock()
}

// Submit normalizes, hashes and enqueues a scenario. An identical
// in-flight or completed scenario is returned as a cache-hit run that
// shares the primary's stream and result bytes.
func (s *Server) Submit(spec Spec) (*Run, bool, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	hash := norm.Hash()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	id := "r" + strconv.Itoa(s.seq+1)
	if prim, ok := s.byHash[hash]; ok {
		run := &Run{ID: id, Hash: hash, spec: norm, src: prim}
		s.register(run)
		s.mu.Unlock()
		s.reg.Counter("stampserve_runs_submitted_total", "Scenario submissions accepted.").Inc()
		s.reg.Counter("stampserve_cache_hits_total", "Submissions served from the scenario-hash result cache.").Inc()
		s.logf("run %s: cache hit for %s (hash %.12s, primary %s)", id, norm.Describe(), hash, prim.ID)
		return run, true, nil
	}
	// The run stays private until the queue takes it, so a full queue
	// rejects it without a trace in the run list, the cache or the
	// submission count. Sending under s.mu after the closed check keeps
	// Close from closing the queue in between.
	run := &Run{ID: id, Hash: hash, spec: norm, state: "queued"}
	run.appendEvent(obs.Event{Kind: evRun, Name: "queued", Detail: norm.Describe()})
	inflight := s.reg.Gauge("stampserve_runs_inflight", "Runs queued or executing.")
	inflight.Add(1)
	select {
	case s.queue <- run:
	default:
		s.mu.Unlock()
		inflight.Add(-1)
		return nil, false, ErrQueueFull
	}
	s.register(run)
	s.byHash[hash] = run
	s.mu.Unlock()

	s.reg.Counter("stampserve_runs_submitted_total", "Scenario submissions accepted.").Inc()
	s.logf("run %s: queued %s (hash %.12s)", id, norm.Describe(), hash)
	return run, false, nil
}

// register publishes an accepted run under the next id. Callers hold
// s.mu.
func (s *Server) register(run *Run) {
	s.seq++
	s.runs[run.ID] = run
	s.order = append(s.order, run.ID)
}

// execute runs a primary run on a worker. The tracer's sink logs each
// simulation event and counts it into the server metrics on the
// simulation's goroutine.
func (s *Server) execute(run *Run) {
	run.setState("running", nil)
	run.appendEvent(obs.Event{Kind: evRun, Name: "started"})
	s.logf("run %s: started", run.ID)

	ob := obs.NewObserver()
	byKind := map[string]obs.Counter{} // each kind's handle, resolved once per run
	ob.Trace.StreamTo(func(ev obs.Event) {
		run.appendEvent(ev)
		c, ok := byKind[ev.Kind]
		if !ok {
			c = s.reg.Counter("stampserve_events_total", "Simulation events streamed, by kind.",
				obs.L("kind", ev.Kind))
			byKind[ev.Kind] = c
		}
		c.Inc()
	})
	res := Execute(run.spec, ob, nil)
	run.mu.Lock()
	res.Events = run.totals
	run.mu.Unlock()

	// Encode once, with the event totals folded in: these bytes are the
	// payload the cache serves forever after.
	b, err := json.Marshal(res)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"hash":%q,"status":"failed","error":"result encoding: %v"}`, res.Hash, err))
	}
	out := &outcome{resultJSON: b}
	if run.spec.Kind == "app" {
		out.runReg = ob.Reg
	}

	if res.Status == "timeout" {
		// A timed-out result depends on host speed, not just the spec:
		// evict the scenario so a resubmission executes afresh instead
		// of being served the truncated run.
		s.mu.Lock()
		if s.byHash[run.Hash] == run {
			delete(s.byHash, run.Hash)
		}
		s.mu.Unlock()
	}
	run.appendEvent(obs.Event{Kind: evRun, Name: res.Status, Detail: res.Error})
	run.setState(res.Status, out)
	s.publishRunMetrics(run, &res)
	s.reg.Gauge("stampserve_runs_inflight", "Runs queued or executing.").Add(-1)
	s.reg.Counter("stampserve_runs_completed_total", "Runs finished, by status.",
		obs.L("status", res.Status)).Inc()
	s.logf("run %s: %s", run.ID, res.Status)
}

// publishRunMetrics exports a completed run's model metrics and drift
// gauges into the server-wide registry.
func (s *Server) publishRunMetrics(run *Run, res *Result) {
	app := run.spec.App
	if run.spec.Kind == "experiment" {
		app = run.spec.Experiment
	}
	ls := []obs.Label{obs.L("run", run.ID), obs.L("app", app)}
	if m := res.Metrics; m != nil {
		s.reg.Gauge("stampserve_run_t_ticks", "Group execution time T (max over members).", ls...).Set(float64(m.T))
		s.reg.Gauge("stampserve_run_energy", "Group energy E (sum over members).", ls...).Set(m.E)
		s.reg.Gauge("stampserve_run_power", "Group mean power P = E/T.", ls...).Set(m.P)
		s.reg.Gauge("stampserve_run_edp", "Group energy-delay product.", ls...).Set(m.EDP)
	}
	for _, d := range res.Drift {
		s.reg.Gauge("stampserve_run_drift_relerr", "Model drift |measured-predicted|/|predicted|.",
			obs.L("run", run.ID), obs.L("app", d.App), obs.L("metric", d.Metric)).Set(d.RelErr)
	}
}

// get looks a run up by id.
func (s *Server) get(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Handler returns the HTTP API:
//
//	POST /runs              submit a scenario spec (JSON body)
//	GET  /runs              list runs
//	GET  /runs/{id}         run status + result (if finished)
//	GET  /runs/{id}/events  stream events (NDJSON; SSE with Accept: text/event-stream)
//	GET  /runs/{id}/result  the cached result bytes, verbatim
//	GET  /runs/{id}/metrics per-run registry (Prometheus text)
//	GET  /metrics           server-wide registry (Prometheus text)
//	GET  /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","workers":%d}`+"\n", s.workers)
	})
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /runs/{id}/metrics", s.handleRunMetrics)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
	})
	return mux
}

// maxSpecBytes bounds a submitted spec's body. A canonical spec is a
// few hundred bytes; even a long fault plan stays far below this.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "spec body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	run, cached, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			// Transient overload: tell the client when to come back.
			// One worker-pool drain is a reasonable horizon; clients
			// treat it as a hint, not a contract.
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, ErrShuttingDown):
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	state, _, _ := run.snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id": run.ID, "hash": run.Hash, "cached": cached, "state": state,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID       string `json:"id"`
		Hash     string `json:"hash"`
		Scenario string `json:"scenario"`
		State    string `json:"state"`
		Cached   bool   `json:"cached"`
		Events   int    `json:"events"`
	}
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]row, 0, len(runs))
	for _, run := range runs {
		state, events, _ := run.snapshot()
		out = append(out, row{
			ID: run.ID, Hash: run.Hash, Scenario: run.spec.Describe(),
			State: state, Cached: run.src != nil, Events: events,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run := s.get(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	state, events, out := run.snapshot()
	resp := map[string]any{
		"id": run.ID, "hash": run.Hash, "state": state,
		"cached": run.src != nil, "spec": run.spec, "events": events,
	}
	if run.src != nil {
		resp["primary"] = run.src.ID
	}
	if out != nil {
		resp["result"] = json.RawMessage(out.resultJSON)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	run := s.get(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	_, _, out := run.snapshot()
	if out == nil {
		httpError(w, http.StatusConflict, "run not finished")
		return
	}
	// Verbatim cached bytes: a resubmitted scenario's result is
	// byte-identical to the primary's.
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.resultJSON)
}

func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	run := s.get(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	_, _, out := run.snapshot()
	if out == nil {
		httpError(w, http.StatusConflict, "run not finished")
		return
	}
	if out.runReg == nil {
		httpError(w, http.StatusNotFound, "run has no registry (experiment scenario)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	out.runReg.WritePrometheus(w)
}

// handleEvents streams the run's event log from ?from= (0-based
// sequence position, default 0) and follows it live until the run
// finishes or the client disconnects. NDJSON by default; SSE when the
// client accepts text/event-stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run := s.get(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from cursor %q", v)
			return
		}
		from = n
	}
	sse := false
	for _, accept := range r.Header.Values("Accept") {
		if accept == "text/event-stream" {
			sse = true
		}
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	var frame []byte
	for {
		b, lines, wake := run.since(from)
		if len(lines) > 0 {
			// The stored bytes go out as they are: in one Write for
			// NDJSON, and one framed line per event for SSE. A failed
			// write means the client has gone.
			if sse {
				for _, l := range lines {
					// A JSON line holds no raw newline: it ends at the next.
					n := bytes.IndexByte(b, '\n') + 1
					frame = append(append(append(frame[:0], "event: "...), l.kind...), "\ndata: "...)
					frame = append(append(frame, b[:n]...), '\n')
					if _, err := w.Write(frame); err != nil {
						return
					}
					b = b[n:]
				}
			} else if _, err := w.Write(b); err != nil {
				return
			}
			from += len(lines)
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if wake == nil {
			return // the run is finished and its log written out
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
