package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// newHeldServer starts a one-worker server with the given queue
// capacity whose worker, once it has logged a run's "started" event,
// parks in its logf callback until release is called. Cleanup releases
// it before closing both servers.
func newHeldServer(t *testing.T, queueCap int) (*Server, *httptest.Server, func()) {
	t.Helper()
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	s := newServer(1, queueCap, func(format string, args ...any) {
		if strings.Contains(format, "started") {
			<-hold
		}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		release()
		ts.Close()
		s.Close()
	})
	return s, ts, release
}

func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(workers, t.Logf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSpec(t *testing.T, base, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /runs: status %d: %s", resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitDone polls the run status until it leaves queued/running.
func waitDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st["state"] {
		case "done", "failed", "timeout":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return nil
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func TestSpecNormalizeAndHash(t *testing.T) {
	a, err := Spec{App: "jacobi", N: 8, Iters: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != "app" || a.Machine != "niagara" || a.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", a)
	}
	// Explicitly spelling out the defaults is the same scenario.
	b, err := Spec{Kind: "app", App: "jacobi", Machine: "niagara", N: 8, Iters: 4, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("default-equal specs hash differently:\n%+v\n%+v", a, b)
	}
	c, _ := Spec{App: "jacobi", N: 8, Iters: 5}.Normalize()
	if a.Hash() == c.Hash() {
		t.Fatal("different iteration counts must hash differently")
	}

	// Fault plans canonicalize by (time, core) order.
	f1, err := Spec{App: "jacobi", Fault: &FaultSpec{Failures: []CoreFailureSpec{{Core: 2, At: 9}, {Core: 1, At: 3}}}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := Spec{App: "jacobi", Fault: &FaultSpec{Failures: []CoreFailureSpec{{Core: 1, At: 3}, {Core: 2, At: 9}}}}.Normalize()
	if f1.Hash() != f2.Hash() {
		t.Fatal("fault order must not affect the scenario hash")
	}

	for _, bad := range []Spec{
		{App: "nope"},
		{Experiment: "nope"},
		{App: "jacobi", Machine: "vax"},
		{App: "jacobi", Procs: 4},    // jacobi takes no procs
		{App: "bank", Mode: "async"}, // bank takes no mode
		{App: "jacobi", Fault: &FaultSpec{Failures: []CoreFailureSpec{{Core: 99, At: 1}}}}, // core out of range
		{Kind: "experiment", Experiment: "models", N: 8},                                   // experiments take no app knobs
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("spec %+v should not normalize", bad)
		}
	}
}

// TestNormalizeDefaults pins the defaults stampsim's flags rely on:
// bank and airline run 8 processes, and jacobi with iters unset runs to
// convergence.
func TestNormalizeDefaults(t *testing.T) {
	for _, app := range []string{"bank", "airline"} {
		s, err := Spec{App: app}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if s.Procs != 8 {
			t.Errorf("%s normalizes to procs %d, want 8", app, s.Procs)
		}
	}
	s, err := Spec{App: "jacobi"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Iters != 0 {
		t.Errorf("jacobi normalizes to iters %d, want 0 (to convergence)", s.Iters)
	}
}

// TestNormalizeCopiesCkpt: Normalize defaults the checkpoint cadence
// on its own copy and leaves the caller's CkptSpec alone.
func TestNormalizeCopiesCkpt(t *testing.T) {
	in := Spec{App: "jacobi", Iters: 4, Ckpt: &CkptSpec{}}
	out, err := in.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if in.Ckpt.Every != 0 {
		t.Errorf("Normalize set the input's Ckpt.Every to %d", in.Ckpt.Every)
	}
	if out.Ckpt == in.Ckpt {
		t.Error("Normalize returned the input's Ckpt pointer")
	}
	if out.Ckpt.Every != 2 {
		t.Errorf("normalized Ckpt.Every = %d, want 2", out.Ckpt.Every)
	}
}

// TestAppDefaultsOverHTTP submits specs that rely on the defaults: an
// unset jacobi iters runs to convergence, and a checkpoint without one
// is refused with a 400 naming iters.
func TestAppDefaultsOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, 1)
	id := postSpec(t, ts.URL, `{"app":"jacobi","n":16}`)["id"].(string)
	if st := waitDone(t, ts.URL, id); st["state"] != "done" {
		t.Fatalf("run state %v", st["state"])
	}
	var res Result
	if err := json.Unmarshal(getBody(t, ts.URL+"/runs/"+id+"/result"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Iters != 21 {
		t.Errorf("jacobi n=16 seed 1 ran %d iterations, want 21 (to convergence)", res.Iters)
	}

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(`{"app":"jacobi","ckpt":{"every":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "iters") {
		t.Errorf("checkpoint without iters: status %d (%s), want 400 naming iters", resp.StatusCode, b)
	}
}

// TestAppResultFields pins the numbers each app's result carries: the
// values stampsim prints for the same specs, and the group's cost
// report as the table.
func TestAppResultFields(t *testing.T) {
	_, ts := newTestServer(t, 2)
	for _, c := range []struct {
		spec  string
		check func(r Result) bool
	}{
		{`{"app":"apsp"}`, func(r Result) bool {
			return r.Epochs == 3 && r.TotalRounds == 96 && r.Correct != nil && *r.Correct
		}},
		{`{"app":"bank"}`, func(r Result) bool {
			return r.Succeeded == 46 && r.Declined == 18 &&
				fmt.Sprintf("%.3f %.3f", r.AbortRate, r.Throughput) == "0.855 44.487"
		}},
		{`{"app":"airline"}`, func(r Result) bool {
			return fmt.Sprint(r.Outcomes) == "map[partial:2 success:78]" &&
				r.LegsCommitted == 238 && fmt.Sprintf("%.3f", r.SuccessRate) == "0.975"
		}},
	} {
		id := postSpec(t, ts.URL, c.spec)["id"].(string)
		waitDone(t, ts.URL, id)
		var r Result
		if err := json.Unmarshal(getBody(t, ts.URL+"/runs/"+id+"/result"), &r); err != nil {
			t.Fatal(err)
		}
		if r.Status != "done" || !c.check(r) {
			t.Errorf("%s: result %+v", c.spec, r)
		}
		if !strings.HasPrefix(r.Table, "group "+r.Spec.App+" [") || !strings.Contains(r.Table, "\n group ") {
			t.Errorf("%s: table is not the group's cost report:\n%s", c.spec, r.Table)
		}
	}
}

// TestSubmitJacobiStreamsBarrierEvents is the tentpole acceptance
// check: a small jacobi run must stream one barrier event for every
// barrier generation, in order, plus profiler category deltas.
func TestSubmitJacobiStreamsBarrierEvents(t *testing.T) {
	_, ts := newTestServer(t, 2)
	const iters = 4
	sub := postSpec(t, ts.URL, fmt.Sprintf(`{"app":"jacobi","n":6,"iters":%d}`, iters))
	id := sub["id"].(string)
	st := waitDone(t, ts.URL, id)
	if st["state"] != "done" {
		t.Fatalf("run state %v", st["state"])
	}

	// Stream the full event log (the run is finished, so the stream
	// terminates after replay).
	body := getBody(t, ts.URL+"/runs/"+id+"/events")
	var barrierGens []int64
	var profiles, spans int
	var lastSeq int64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("event seq %d after %d: stream must be gapless", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case obs.EvBarrier:
			barrierGens = append(barrierGens, ev.Gen)
		case obs.EvProfile:
			profiles++
			if !strings.Contains(ev.Detail, "compute=") {
				t.Fatalf("profile delta %q missing category breakdown", ev.Detail)
			}
		case obs.EvSpanOpen:
			spans++
		}
	}
	// One initial Barrier() plus one implicit synch_comm barrier per
	// iteration → generations 1..iters+1.
	want := iters + 1
	if len(barrierGens) != want {
		t.Fatalf("got %d barrier events %v, want one per generation (%d)", len(barrierGens), barrierGens, want)
	}
	for i, g := range barrierGens {
		if g != int64(i+1) {
			t.Fatalf("barrier generations %v not consecutive from 1", barrierGens)
		}
	}
	if profiles != want {
		t.Fatalf("got %d profile deltas, want one per barrier generation (%d)", profiles, want)
	}
	if spans == 0 {
		t.Fatal("no span events streamed")
	}

	// The ?from cursor resumes mid-stream.
	tail := getBody(t, ts.URL+"/runs/"+id+"/events?from="+fmt.Sprint(lastSeq-2))
	lines := bytes.Count(bytes.TrimSpace(tail), []byte("\n")) + 1
	if lines != 2 {
		t.Fatalf("cursor resume returned %d events, want 2", lines)
	}
}

func TestScenarioCacheByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, 1)
	spec := `{"app":"jacobi","n":6,"iters":3}`
	first := postSpec(t, ts.URL, spec)
	if first["cached"] != false {
		t.Fatalf("first submission reported cached: %v", first)
	}
	waitDone(t, ts.URL, first["id"].(string))

	second := postSpec(t, ts.URL, spec)
	if second["cached"] != true {
		t.Fatalf("identical resubmission not served from cache: %v", second)
	}
	if first["hash"] != second["hash"] {
		t.Fatalf("hash mismatch: %v vs %v", first["hash"], second["hash"])
	}
	waitDone(t, ts.URL, second["id"].(string))

	r1 := getBody(t, ts.URL+"/runs/"+first["id"].(string)+"/result")
	r2 := getBody(t, ts.URL+"/runs/"+second["id"].(string)+"/result")
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cached result not byte-identical:\n%s\nvs\n%s", r1, r2)
	}
	e1 := getBody(t, ts.URL+"/runs/"+first["id"].(string)+"/events")
	e2 := getBody(t, ts.URL+"/runs/"+second["id"].(string)+"/events")
	if !bytes.Equal(e1, e2) {
		t.Fatal("cached event stream not byte-identical")
	}
	if v := s.Registry().Counter("stampserve_cache_hits_total", "").Value(); v != 1 {
		t.Fatalf("cache hit counter = %v, want 1", v)
	}

	// A different seed is a different scenario.
	third := postSpec(t, ts.URL, `{"app":"jacobi","n":6,"iters":3,"seed":2}`)
	if third["cached"] != false {
		t.Fatal("different seed must miss the cache")
	}
}

// TestMetricsScrapeMidRun scrapes /metrics and /runs continuously
// while simulations execute — the concurrent-exposition guarantee the
// -race target locks in.
func TestMetricsScrapeMidRun(t *testing.T) {
	_, ts := newTestServer(t, 4)
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		sub := postSpec(t, ts.URL, fmt.Sprintf(`{"app":"jacobi","n":8,"iters":6,"seed":%d}`, seed))
		ids = append(ids, sub["id"].(string))
	}
	scrapes := 0
	for {
		b := getBody(t, ts.URL+"/metrics")
		if !bytes.Contains(b, []byte("stampserve_runs_submitted_total")) {
			t.Fatalf("scrape missing submission counter:\n%s", b)
		}
		getBody(t, ts.URL+"/runs")
		scrapes++
		done := 0
		var list []map[string]any
		if err := json.Unmarshal(getBody(t, ts.URL+"/runs"), &list); err != nil {
			t.Fatal(err)
		}
		for _, row := range list {
			if row["state"] == "done" || row["state"] == "failed" {
				done++
			}
		}
		if done == len(ids) {
			break
		}
	}
	if scrapes == 0 {
		t.Fatal("no scrapes ran")
	}
	for _, id := range ids {
		if st := waitDone(t, ts.URL, id); st["state"] != "done" {
			t.Fatalf("run %s state %v", id, st["state"])
		}
	}
	// After completion the aggregate exposes per-run model metrics.
	b := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{"stampserve_run_t_ticks", "stampserve_run_energy", "stampserve_run_power", "stampserve_run_edp", "stampserve_run_drift_relerr", "stampserve_events_total"} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("aggregate metrics missing %s", want)
		}
	}
}

func TestExperimentScenario(t *testing.T) {
	_, ts := newTestServer(t, 1)
	sub := postSpec(t, ts.URL, `{"experiment":"models"}`)
	st := waitDone(t, ts.URL, sub["id"].(string))
	if st["state"] != "done" {
		t.Fatalf("experiment state %v", st["state"])
	}
	var res Result
	if err := json.Unmarshal(getBody(t, ts.URL+"/runs/"+sub["id"].(string)+"/result"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Passed == nil || !*res.Passed {
		t.Fatalf("experiment did not pass: %+v", res.Checks)
	}
	if len(res.Checks) == 0 || res.Table == "" {
		t.Fatal("experiment result missing checks or table")
	}
}

func TestFaultScenarioStreamsFaultEvents(t *testing.T) {
	_, ts := newTestServer(t, 1)
	sub := postSpec(t, ts.URL, `{"app":"jacobi","n":6,"iters":4,"fault":{"failures":[{"core":0,"at":30}]}}`)
	st := waitDone(t, ts.URL, sub["id"].(string))
	if st["state"] != "failed" {
		t.Fatalf("fault-disrupted run state %v, want failed (survivor deadlock)", st["state"])
	}
	var res Result
	if err := json.Unmarshal(getBody(t, ts.URL+"/runs/"+sub["id"].(string)+"/result"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Events.FaultFirings == 0 {
		t.Fatal("no fault firing streamed")
	}
	if len(res.Faults) == 0 {
		t.Fatal("no killed processes recorded")
	}
	if !strings.Contains(res.Error, "deadlock") {
		t.Fatalf("unexpected failure error %q", res.Error)
	}

	// The disruption is itself deterministic: resubmission hits the
	// cache with identical failure bytes.
	again := postSpec(t, ts.URL, `{"app":"jacobi","n":6,"iters":4,"fault":{"failures":[{"core":0,"at":30}]}}`)
	if again["cached"] != true {
		t.Fatal("deterministic failure must be cacheable")
	}
}

func TestCkptScenarioStreamsCommits(t *testing.T) {
	_, ts := newTestServer(t, 1)
	sub := postSpec(t, ts.URL, `{"app":"jacobi","n":8,"iters":6,"ckpt":{"every":2}}`)
	st := waitDone(t, ts.URL, sub["id"].(string))
	if st["state"] != "done" {
		t.Fatalf("ckpt run state %v", st["state"])
	}
	var res Result
	if err := json.Unmarshal(getBody(t, ts.URL+"/runs/"+sub["id"].(string)+"/result"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Events.CkptCommits == 0 {
		t.Fatal("no checkpoint commit events streamed")
	}
}

// TestDriftBitIdenticalAcrossWorkers locks in the satellite guarantee:
// drift gauges (and whole result payloads) computed under worker pools
// of 1, 2 and 4 are bit-identical to a direct sequential execution —
// host-side parallelism must not perturb virtual time.
func TestDriftBitIdenticalAcrossWorkers(t *testing.T) {
	scenarios := []string{
		`{"app":"jacobi","n":8,"iters":4}`,
		`{"app":"jacobi","n":6,"iters":3,"seed":7}`,
		`{"app":"apsp","n":8}`,
		`{"app":"apsp","n":8,"mode":"bulksync"}`,
	}

	// Sequential reference: execute directly, no pool. The drift rows
	// it records are the ground truth every pool size must reproduce.
	var wantDrift [][]DriftRow
	for _, sc := range scenarios {
		var spec Spec
		if err := json.Unmarshal([]byte(sc), &spec); err != nil {
			t.Fatal(err)
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		res := Execute(norm, obs.NewObserver(), nil)
		if len(res.Drift) == 0 {
			t.Fatalf("scenario %s recorded no drift gauges", sc)
		}
		wantDrift = append(wantDrift, res.Drift)
	}

	// want holds the full result payloads from the 1-worker pool; the
	// larger pools must reproduce them byte-for-byte.
	var want [][]byte
	for _, workers := range []int{1, 2, 4} {
		_, ts := newTestServer(t, workers)
		var ids []string
		for _, sc := range scenarios {
			ids = append(ids, postSpec(t, ts.URL, sc)["id"].(string))
		}
		for i, id := range ids {
			waitDone(t, ts.URL, id)
			got := getBody(t, ts.URL+"/runs/"+id+"/result")
			var res Result
			if err := json.Unmarshal(got, &res); err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = append(want, got)
			} else if !bytes.Equal(got, want[i]) {
				t.Errorf("workers=%d: scenario %s result differs from workers=1:\n%s\nvs\n%s",
					workers, scenarios[i], got, want[i])
			}
			if len(res.Drift) != len(wantDrift[i]) {
				t.Fatalf("workers=%d: scenario %s drift rows %d, want %d",
					workers, scenarios[i], len(res.Drift), len(wantDrift[i]))
			}
			for j, d := range res.Drift {
				if w := wantDrift[i][j]; d != w {
					t.Errorf("workers=%d: scenario %s drift[%d] = %+v, want %+v (bit-identical)",
						workers, scenarios[i], j, d, w)
				}
			}
		}
	}
}

func TestSSEFormat(t *testing.T) {
	_, ts := newTestServer(t, 1)
	sub := postSpec(t, ts.URL, `{"app":"jacobi","n":6,"iters":2}`)
	id := sub["id"].(string)
	waitDone(t, ts.URL, id)

	req, _ := http.NewRequest("GET", ts.URL+"/runs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("event: barrier\ndata: ")) {
		t.Fatal("SSE stream missing typed barrier event")
	}
}

func TestRunNotFound(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/runs/r999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/runs", "application/json", strings.NewReader(`{"app":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d, want 400", resp.StatusCode)
	}
}

// TestNegativeFromCursor is the regression test for the ?from= panic:
// a negative cursor must be rejected with 400 at the HTTP layer, and
// since itself must clamp negative positions instead of slicing the log
// out of range (which panicked the handler goroutine on a live run).
func TestNegativeFromCursor(t *testing.T) {
	s, ts := newTestServer(t, 1)
	sub := postSpec(t, ts.URL, `{"app":"jacobi","n":6,"iters":2}`)
	id := sub["id"].(string)

	// Hit the live run immediately — before waitDone — so the rejection
	// path is exercised while events are still being appended.
	resp, err := http.Get(ts.URL + "/runs/" + id + "/events?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?from=-1 on a live run: status %d, want 400", resp.StatusCode)
	}

	waitDone(t, ts.URL, id)

	// The defensive clamp: since(-1) must behave as from=0, not panic.
	run := s.get(id)
	if run == nil {
		t.Fatal("run disappeared")
	}
	b, lines, _ := run.since(-1)
	all, allLines, _ := run.since(0)
	if !bytes.Equal(b, all) || len(lines) != len(allLines) || len(lines) == 0 {
		t.Fatalf("since(-1) returned %d lines, want all %d", len(lines), len(allLines))
	}

	// Other malformed cursors stay rejected too.
	resp, err = http.Get(ts.URL + "/runs/" + id + "/events?from=zap")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?from=zap: status %d, want 400", resp.StatusCode)
	}
}

// TestRunTimeout submits a scenario far too heavy to finish inside its
// wall-clock deadline: the run must come back with status "timeout",
// and the scenario must not be cached — a resubmission executes afresh
// rather than being served the truncated result.
func TestRunTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("burns a real wall-clock second on purpose")
	}
	_, ts := newTestServer(t, 1)
	// iters at its upper bound: over a minute of simulation on a 2-CPU
	// host, far past the one-second deadline.
	spec := `{"app":"jacobi","n":64,"iters":10000,"timeout_sec":1}`

	sub := postSpec(t, ts.URL, spec)
	st := waitDone(t, ts.URL, sub["id"].(string))
	if st["state"] != "timeout" {
		t.Fatalf("state = %v, want timeout", st["state"])
	}
	res := st["result"].(map[string]any)
	if res["status"] != "timeout" {
		t.Errorf("result status = %v, want timeout", res["status"])
	}
	if e, _ := res["error"].(string); !strings.Contains(e, "deadline") {
		t.Errorf("result error %q does not mention the deadline", e)
	}

	// The truncated result must not have been cached.
	sub2 := postSpec(t, ts.URL, spec)
	if sub2["cached"] != false {
		t.Errorf("resubmission after timeout served from cache")
	}
}

// TestTimeoutSpecValidation pins the spec-level rules: negative
// deadlines are rejected, and experiment scenarios take no deadline.
func TestTimeoutSpecValidation(t *testing.T) {
	if _, err := (Spec{App: "jacobi", TimeoutSec: -1}).Normalize(); err == nil {
		t.Error("negative timeout_sec accepted")
	}
	if _, err := (Spec{Experiment: "table1", TimeoutSec: 5}).Normalize(); err == nil {
		t.Error("timeout_sec accepted on an experiment scenario")
	}
	a, err := (Spec{App: "jacobi", TimeoutSec: 5}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (Spec{App: "jacobi"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Error("deadline-bounded spec hashes like the unbounded one")
	}
}

// TestSubmitInputLimits pins stampserve's input bounds: a body over
// maxSpecBytes is refused with 413, and each size knob past its limit
// with a 400 that names the field. The limits themselves are accepted.
func TestSubmitInputLimits(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, c := range []struct {
		name, body string
		code       int
	}{
		{"n", `{"app":"jacobi","n":1025}`, http.StatusBadRequest},
		{"procs", `{"app":"bank","procs":1025}`, http.StatusBadRequest},
		{"iters", `{"app":"jacobi","iters":10001}`, http.StatusBadRequest},
		{"body", `{"app":"jacobi","machine":"` + strings.Repeat("x", maxSpecBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, b, c.code)
			}
			if c.code == http.StatusBadRequest && !strings.Contains(string(b), c.name+" must be") {
				t.Errorf("error %s does not name the field %q", b, c.name)
			}
		})
	}
	for _, sp := range []Spec{{App: "jacobi", N: maxN, Iters: maxIters}, {App: "bank", Procs: maxProcs}} {
		if _, err := sp.Normalize(); err != nil {
			t.Errorf("spec at the limits %+v rejected: %v", sp, err)
		}
	}
}

// TestSubmitQueueFull429 fills the submit queue (capacity 0, worker
// held captive inside its logf callback) and checks the HTTP
// rejection: 429 with a Retry-After hint, while a closing server still
// answers 503.
func TestSubmitQueueFull429(t *testing.T) {
	s, ts, release := newHeldServer(t, 0)

	// First submission hands off to the (sole) worker, which parks in
	// logf; the unbuffered queue is now full for everyone else.
	postSpec(t, ts.URL, `{"app":"jacobi","n":4,"iters":2}`)

	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"app":"jacobi","n":6,"iters":2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: status %d (%s), want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}

	// The rejected run leaves no trace: the run list holds the accepted
	// run alone, and only it counts as submitted.
	var list []map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/runs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0]["id"] != "r1" {
		t.Errorf("GET /runs after a 429 lists %v, want the accepted r1 alone", list)
	}
	if m := getBody(t, ts.URL+"/metrics"); !bytes.Contains(m, []byte("\nstampserve_runs_submitted_total 1\n")) {
		t.Errorf("/metrics after a 429 does not count one submission:\n%s", m)
	}

	// Shutdown keeps its own status code.
	release()
	s.Close()
	resp, err = http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"app":"jacobi","n":8,"iters":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}

// TestSubmitCloseRace submits from several goroutines while Close runs.
// Every Submit must return a run or one of the two rejections, never
// panic on the closed queue, and every accepted run must finish: Close
// drains the queue.
func TestSubmitCloseRace(t *testing.T) {
	const submitters = 8
	for i := 0; i < 300; i++ {
		s := newServer(1, 4, nil)
		var seed atomic.Int64
		var mu sync.Mutex
		var accepted []*Run
		var wg sync.WaitGroup
		errs := make(chan error, submitters) // each submitter sends at most once
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						errs <- fmt.Errorf("Submit panicked: %v", r)
					}
				}()
				for {
					run, _, err := s.Submit(Spec{App: "jacobi", N: 2, Iters: 1, Seed: seed.Add(1)})
					switch {
					case errors.Is(err, ErrShuttingDown):
						return
					case errors.Is(err, ErrQueueFull):
					case err != nil:
						errs <- err
						return
					default:
						mu.Lock()
						accepted = append(accepted, run)
						mu.Unlock()
					}
				}
			}()
		}
		s.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for _, run := range accepted {
			if state, _, _ := run.snapshot(); state != "done" {
				t.Fatalf("accepted run %s ended %q after Close", run.ID, state)
			}
		}
	}
}
