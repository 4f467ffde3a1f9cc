package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
type Run struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	spec Spec
	src  *Run // non-nil ⇒ cache hit; all state delegates to src

	mu      sync.Mutex
	state   string // "queued" | "running" | "done" | "failed" | "timeout"
	events  []obs.Event
	notify  chan struct{} // closed+replaced on every append/state change
	outcome *outcome
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

// snapshot returns the run's state, event count and outcome.
func (r *Run) snapshot() (state string, events int, out *outcome) {
	p := r.primary()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, len(p.events), p.outcome
}

// eventsSince returns the events at positions ≥ from (0-based), the
// channel closed on the next append, and whether the run is finished.
// The returned slice aliases the append-only log: entries are never
// mutated after append, so reading them without the lock is safe.
func (r *Run) eventsSince(from int) ([]obs.Event, <-chan struct{}, bool) {
	p := r.primary()
	p.mu.Lock()
	defer p.mu.Unlock()
	// Clamp both ends: the HTTP layer rejects negative cursors, but the
	// clamp must live here too — p.events[from:] on a negative index
	// would panic the handler goroutine for any future caller that
	// forgets the check.
	if from < 0 {
		from = 0
	}
	if from > len(p.events) {
		from = len(p.events)
	}
	done := p.state == "done" || p.state == "failed" || p.state == "timeout"
	return p.events[from:], p.notify, done
}

// appendEvent adds ev to the primary log, assigning the stream
// sequence number, and wakes streaming readers.
func (r *Run) appendEvent(ev obs.Event) {
	p := r.primary()
	p.mu.Lock()
	ev.Seq = int64(len(p.events) + 1)
	p.events = append(p.events, ev)
	close(p.notify)
	p.notify = make(chan struct{})
	p.mu.Unlock()
}

// setState transitions the run and wakes streaming readers.
func (r *Run) setState(state string, out *outcome) {
	p := r.primary()
	p.mu.Lock()
	p.state = state
	if out != nil {
		p.outcome = out
	}
	close(p.notify)
	p.notify = make(chan struct{})
	p.mu.Unlock()
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
	s.seq++
	id := "r" + strconv.Itoa(s.seq)
	if prim, ok := s.byHash[hash]; ok {
		run := &Run{ID: id, Hash: hash, spec: norm, src: prim}
		s.runs[id] = run
		s.order = append(s.order, id)
		s.mu.Unlock()
		s.reg.Counter("stampserve_runs_submitted_total", "Scenario submissions accepted.").Inc()
		s.reg.Counter("stampserve_cache_hits_total", "Submissions served from the scenario-hash result cache.").Inc()
		s.logf("run %s: cache hit for %s (hash %.12s, primary %s)", id, norm.Describe(), hash, prim.ID)
		return run, true, nil
	}
	run := &Run{ID: id, Hash: hash, spec: norm, state: "queued", notify: make(chan struct{})}
	s.runs[id] = run
	s.order = append(s.order, id)
	s.byHash[hash] = run
	s.mu.Unlock()

	s.reg.Counter("stampserve_runs_submitted_total", "Scenario submissions accepted.").Inc()
	s.reg.Gauge("stampserve_runs_inflight", "Runs queued or executing.").Add(1)
	run.appendEvent(obs.Event{Kind: evRun, Name: "queued", Detail: norm.Describe()})
	s.logf("run %s: queued %s (hash %.12s)", id, norm.Describe(), hash)

	select {
	case s.queue <- run:
	default:
		// Queue full: fail the run rather than block the handler.
		run.setState("failed", &outcome{
			res:        Result{Spec: norm, Hash: hash, Status: "failed", Error: ErrQueueFull.Error()},
			resultJSON: []byte(fmt.Sprintf(`{"hash":%q,"status":"failed","error":%q}`, hash, ErrQueueFull.Error())),
		})
		s.mu.Lock()
		delete(s.byHash, hash) // don't cache the rejection
		s.mu.Unlock()
		s.reg.Gauge("stampserve_runs_inflight", "Runs queued or executing.").Add(-1)
		return nil, false, ErrQueueFull
	}
	return run, false, nil
}

// execute runs a primary run on a worker, forwarding simulation
// events into the run log and the server metrics.
func (s *Server) execute(run *Run) {
	run.setState("running", nil)
	run.appendEvent(obs.Event{Kind: evRun, Name: "started"})
	s.logf("run %s: started", run.ID)

	out := execute(run.spec, func(ev obs.Event) {
		run.appendEvent(ev)
		s.reg.Counter("stampserve_events_total", "Simulation events streamed, by kind.",
			obs.L("kind", ev.Kind)).Inc()
	})
	out.res.Events = summarize(run)

	// Re-encode with the event totals folded in; the encoding is the
	// canonical byte payload the cache serves forever after.
	if b, err := json.Marshal(out.res); err == nil {
		out.resultJSON = b
	}

	status := out.res.Status
	if status == "timeout" {
		// A timed-out result depends on host speed, not just the spec:
		// evict the scenario so a resubmission executes afresh instead
		// of being served the truncated run.
		s.mu.Lock()
		if s.byHash[run.Hash] == run {
			delete(s.byHash, run.Hash)
		}
		s.mu.Unlock()
	}
	run.appendEvent(obs.Event{Kind: evRun, Name: status, Detail: out.res.Error})
	run.setState(status, out)
	s.publishRunMetrics(run, out)
	s.reg.Gauge("stampserve_runs_inflight", "Runs queued or executing.").Add(-1)
	s.reg.Counter("stampserve_runs_completed_total", "Runs finished, by status.",
		obs.L("status", status)).Inc()
	s.logf("run %s: %s", run.ID, status)
}

// summarize counts the run's simulation events for the result JSON.
// Excludes the trailing lifecycle event (not yet appended) and counts
// only deterministic simulation kinds, so the totals are a pure
// function of the scenario.
func summarize(run *Run) EventTotals {
	evs, _, _ := run.eventsSince(0)
	var t EventTotals
	for _, ev := range evs {
		switch ev.Kind {
		case evRun:
			continue
		case obs.EvSpanOpen:
			t.Spans++
		case obs.EvBarrier:
			if ev.Gen > t.BarrierGenerations {
				t.BarrierGenerations = ev.Gen
			}
		case obs.EvCkpt:
			t.CkptCommits++
		case obs.EvFault:
			t.FaultFirings++
		}
		t.Total++
	}
	return t
}

// publishRunMetrics exports a completed run's model metrics and drift
// gauges into the server-wide registry.
func (s *Server) publishRunMetrics(run *Run, out *outcome) {
	app := run.spec.App
	if run.spec.Kind == "experiment" {
		app = run.spec.Experiment
	}
	ls := []obs.Label{obs.L("run", run.ID), obs.L("app", app)}
	if m := out.res.Metrics; m != nil {
		s.reg.Gauge("stampserve_run_t_ticks", "Group execution time T (max over members).", ls...).Set(float64(m.T))
		s.reg.Gauge("stampserve_run_energy", "Group energy E (sum over members).", ls...).Set(m.E)
		s.reg.Gauge("stampserve_run_power", "Group mean power P = E/T.", ls...).Set(m.P)
		s.reg.Gauge("stampserve_run_edp", "Group energy-delay product.", ls...).Set(m.EDP)
	}
	for _, d := range out.res.Drift {
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
	enc := json.NewEncoder(w)
	for {
		evs, notify, done := run.eventsSince(from)
		for _, ev := range evs {
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: ", ev.Kind)
			}
			enc.Encode(ev)
			if sse {
				fmt.Fprint(w, "\n")
			}
			from++
		}
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			// Catch events appended between the final read and the state
			// transition.
			if evs, _, _ := run.eventsSince(from); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-notify:
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
