package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve-sweep shape: each round boots a fresh stampserve and sends
// it a fixed number of requests from as many closed-loop clients as the
// server has workers. The server keeps every run it has served, so a
// round of fixed size, not fixed length, keeps its memory independent
// of speed.
const (
	sweepRequests = 200
	sweepClients  = 2
	sweepWorkers  = 2
	bootTimeout   = 10 * time.Second
)

// sweepRequest is one request of a round's plan.
type sweepRequest struct {
	spec []byte // the POST /runs body
	ckpt bool
}

// sweepPlan draws a round's requests from the seed. Each block of ten
// holds, in a seeded order, 6 fresh jacobi runs (n=16, 6 iterations),
// 2 fresh jacobi runs that checkpoint every 2 iterations, and 2 exact
// resubmissions of an earlier request, which the server answers from
// its result cache. The proportions are exact so that a round's work
// does not depend on the seed.
func sweepPlan(seed int64, n int) []sweepRequest {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]sweepRequest, 0, n)
	for len(plan) < n {
		order := rng.Perm(10)
		if len(plan) == 0 {
			// The first request has nothing earlier to resubmit.
			for i, k := range order {
				if k < 8 {
					order[0], order[i] = order[i], order[0]
					break
				}
			}
		}
		for _, k := range order {
			if len(plan) == n {
				break
			}
			if k >= 8 {
				plan = append(plan, plan[rng.Intn(len(plan))])
				continue
			}
			ckpt := k >= 6
			spec := fmt.Sprintf(`{"app":"jacobi","n":16,"iters":6,"seed":%d}`, 1+rng.Int63n(1<<40))
			if ckpt {
				spec = strings.TrimSuffix(spec, "}") + `,"ckpt":{"every":2}}`
			}
			plan = append(plan, sweepRequest{spec: []byte(spec), ckpt: ckpt})
		}
	}
	return plan
}

// runServeSweep is the serve-sweep workload: rounds of sweepPlan against
// a stampserve child process until the run's time is up.
//
// A traced run alternates plain and traced rounds. A traced round wraps
// every HTTP call in a span and, once the round's clients are done,
// reads each executed run's /runs/{id}/metrics and one /metrics scrape.
// Plain rounds give the end-to-end numbers and the base of the tracing
// overhead.
func runServeSweep(ctx context.Context, cfg config) (*result, error) {
	bin, err := filepath.Abs(filepath.Join(cfg.buildDir, "stampserve"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("stampserve binary: %w (build it with run.sh)", err)
	}
	res := newResult()
	genStart := time.Now()
	plan := sweepPlan(cfg.seed, sweepRequests)
	genMS := float64(time.Since(genStart).Nanoseconds()) / 1e6

	var (
		setups, plain, traced, hwm []float64
		latencies                  []float64 // plain rounds, milliseconds
		lay                        serveLayers
	)
	kinds := 1
	if cfg.trace {
		kinds = 2
	}
	err = loop(ctx, cfg.duration, 2*kinds, func(i int) error {
		var spans *spanLog
		if i%kinds == 1 {
			spans = cfg.spans
		}
		rd, err := sweepRound(ctx, bin, plan, spans)
		if err != nil {
			return err
		}
		setups = append(setups, rd.setup)
		for _, rec := range rd.recs {
			res.record("serve-sweep/"+rec.id, rec.err)
		}
		if spans == nil {
			plain = append(plain, rd.wall)
			hwm = append(hwm, rd.peakRSSMB)
			for _, rec := range rd.recs {
				if rec.err == nil {
					latencies = append(latencies, rec.latencyMS)
				}
			}
		} else {
			traced = append(traced, rd.wall)
			lay.add(rd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := res.metrics
	m["setup_s"] = median(setups)
	m["pass_s"] = median(plain)
	m["latency_ms_p50"] = percentile(latencies, 50)
	m["latency_ms_p99"] = percentile(latencies, 99)
	m["throughput_rps"] = ratio(float64(len(latencies))/float64(len(plain)), median(plain))
	m["peak_rss_mb"] = median(hwm)
	if cfg.trace {
		lay.set(m)
		m["workload.gen_ms"] = genMS
		m["bench.trace_overhead_ratio"] = ratio(median(traced), median(plain))
	}
	return res, nil
}

// requestRecord is what one request of a round measured.
type requestRecord struct {
	err       error
	id        string // the server's run id
	hash      string // the scenario hash; equal hashes must give equal results
	cached    bool   // the server answered from its result cache
	ckpt      bool
	latencyMS float64 // from submitting until the result bytes arrived
	result    []byte
	events    int // streamed events
	// streamBytes is the size of the NDJSON event stream.
	streamBytes int
	// Traced rounds only: the client-side phases, milliseconds.
	submitMS, queueMS, execMS, resultMS float64
}

// roundResult is what one round measured.
type roundResult struct {
	setup     float64 // seconds from exec until /healthz answered 200
	wall      float64 // seconds from the first submission to the last result
	peakRSSMB float64 // the server's VmHWM at the end of the round
	recs      []requestRecord
	// Traced rounds only.
	counts     layerCounts // summed over the round's executed runs
	retainedKB float64     // server RSS growth over the round
	metricsKB  float64     // size of the end-of-round /metrics scrape
	scrapeMS   float64
	hitRatio   float64 // cache hits ÷ submissions, from /metrics
}

// sweepRound boots a server, runs plan against it from sweepClients
// closed-loop clients, checks every response and stops the server.
func sweepRound(ctx context.Context, bin string, plan []sweepRequest, spans *spanLog) (*roundResult, error) {
	boot := time.Now()
	srv, err := startServer(ctx, bin)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rd := &roundResult{setup: seconds(boot), recs: make([]requestRecord, len(plan))}
	rssBefore, err := procStatusKB(srv.pid, "VmRSS")
	if err != nil {
		return nil, err
	}

	round := spans.begin("serve.round", 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sweepClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				rd.recs[i] = srv.request(ctx, plan[i], spans, round)
			}
		}()
	}
	wg.Wait()
	rd.wall = seconds(start)
	spans.end(round)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	checkHits(rd.recs)

	hwmKB, err := procStatusKB(srv.pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	rd.peakRSSMB = hwmKB / 1024
	if spans == nil {
		return rd, nil
	}

	rssAfter, err := procStatusKB(srv.pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	rd.retainedKB = rssAfter - rssBefore
	for _, rec := range rd.recs {
		if rec.err != nil || rec.cached {
			continue
		}
		body, err := srv.get(ctx, "/runs/"+rec.id+"/metrics")
		if err != nil {
			return nil, err
		}
		rd.counts.add(runCounts(promSums(string(body))))
	}
	t := time.Now()
	sp := spans.begin("serve.metrics", 0)
	body, err := srv.get(ctx, "/metrics")
	spans.end(sp)
	if err != nil {
		return nil, err
	}
	rd.scrapeMS = float64(time.Since(t).Nanoseconds()) / 1e6
	rd.metricsKB = float64(len(body)) / 1024
	agg := promSums(string(body))
	rd.hitRatio = ratio(agg["stampserve_cache_hits_total"], agg["stampserve_runs_submitted_total"])
	return rd, nil
}

// checkHits fails every request whose result bytes differ from those of
// the executed run of the same scenario.
func checkHits(recs []requestRecord) {
	primary := map[string][]byte{}
	for _, rec := range recs {
		if rec.err == nil && !rec.cached {
			primary[rec.hash] = rec.result
		}
	}
	for i := range recs {
		rec := &recs[i]
		if rec.err != nil || !rec.cached {
			continue
		}
		if want, ok := primary[rec.hash]; !ok || !bytes.Equal(rec.result, want) {
			rec.err = fmt.Errorf("cache hit for %.12s returned %d bytes that differ from its primary's %d", rec.hash, len(rec.result), len(want))
		}
	}
}

// server is a stampserve child process.
type server struct {
	cmd    *exec.Cmd
	pid    string
	base   string // http://host:port
	client *http.Client
}

// startServer execs bin on an ephemeral loopback port, reads the
// "stampserve listening on http://…" handshake from its stdout and waits
// for /healthz to answer 200. On error the child is already stopped.
func startServer(ctx context.Context, bin string) (*server, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(sweepWorkers))
	// Stop the server even if this process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting stampserve: %w", err)
	}
	srv := &server{
		cmd:    cmd,
		pid:    strconv.Itoa(cmd.Process.Pid),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sweepClients}},
	}
	if err := srv.handshake(ctx, stdout); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

func (s *server) handshake(ctx context.Context, stdout io.Reader) error {
	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(stdout).ReadString('\n')
		line <- l
	}()
	select {
	case l := <-line:
		url, ok := strings.CutPrefix(strings.TrimSpace(l), "stampserve listening on ")
		if !ok {
			return fmt.Errorf("stampserve handshake: got %q", l)
		}
		s.base = url
	case <-deadline.C:
		return errors.New("stampserve printed no handshake")
	case <-ctx.Done():
		return ctx.Err()
	}
	for {
		if _, err := s.get(ctx, "/healthz"); err == nil {
			return nil
		}
		select {
		case <-time.After(time.Millisecond):
		case <-deadline.C:
			return errors.New("stampserve /healthz never answered 200")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stop asks the server to shut down, kills it if it has not exited
// within a few seconds, and reaps it.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited child needs no signal
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server says nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// get fetches path and returns the body of a 200 response.
func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// request submits one scenario, follows its event stream to the terminal
// event and fetches its result, checking each step.
func (s *server) request(ctx context.Context, r sweepRequest, spans *spanLog, parent int) (rec requestRecord) {
	rec.ckpt = r.ckpt
	top := spans.begin("serve.request", parent)
	defer spans.end(top)
	start := time.Now()

	sp := spans.begin("serve.submit", top)
	rec.err = s.submit(ctx, r.spec, &rec)
	rec.submitMS = spans.end(sp)
	if rec.err != nil {
		return rec
	}
	rec.err = s.follow(ctx, &rec, spans, top)
	if rec.err != nil {
		return rec
	}
	sp = spans.begin("serve.result", top)
	rec.result, rec.err = s.get(ctx, "/runs/"+rec.id+"/result")
	rec.resultMS = spans.end(sp)
	rec.latencyMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if rec.err != nil {
		return rec
	}
	var out struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.result, &out); err != nil {
		rec.err = fmt.Errorf("result of %s: %w", rec.id, err)
	} else if out.Status != "done" {
		rec.err = fmt.Errorf("run %s finished %q", rec.id, out.Status)
	}
	return rec
}

func (s *server) submit(ctx context.Context, spec []byte, rec *requestRecord) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/runs", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("POST /runs: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /runs: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var ack struct {
		ID     string `json:"id"`
		Hash   string `json:"hash"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("POST /runs: %w", err)
	}
	rec.id, rec.hash, rec.cached = ack.ID, ack.Hash, ack.Cached
	return nil
}

// follow reads the run's NDJSON event stream until the server closes it,
// checking that sequence numbers start at 1 without gaps and that the
// last event is the run's terminal "done". The queue span runs from the
// submission's acceptance to the "started" event, the exec span from
// there to the terminal event.
//
// Only the leading seq and the server's own lifecycle events are
// decoded, so that the client spends little CPU beside the server.
func (s *server) follow(ctx context.Context, rec *requestRecord, spans *spanLog, parent int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/runs/"+rec.id+"/events", nil)
	if err != nil {
		return err
	}
	queue := spans.begin("serve.queue", parent)
	execSpan := 0
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events of %s: %s", rec.id, resp.Status)
	}
	var seq int64
	var last lifecycleEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		rec.streamBytes += len(line) + 1
		n, err := eventSeq(line)
		if err != nil {
			return fmt.Errorf("event stream of %s: %w", rec.id, err)
		}
		if n != seq+1 {
			return fmt.Errorf("event stream of %s: seq %d follows %d", rec.id, n, seq)
		}
		seq = n
		rec.events++
		last = lifecycleEvent{}
		if !bytes.Contains(line, []byte(`"kind":"run"`)) {
			continue
		}
		if err := json.Unmarshal(line, &last); err != nil {
			return fmt.Errorf("event stream of %s: %w", rec.id, err)
		}
		if last.Name == "started" && execSpan == 0 {
			rec.queueMS = spans.end(queue)
			execSpan = spans.begin("serve.exec", parent)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("event stream of %s: %w", rec.id, err)
	}
	rec.execMS = spans.end(execSpan)
	if execSpan == 0 {
		spans.end(queue)
	}
	if last.Kind != "run" || last.Name != "done" {
		return fmt.Errorf("event stream of %s ended with %q %q, want run \"done\"", rec.id, last.Kind, last.Name)
	}
	return nil
}

// lifecycleEvent is the part of a streamed event the checks read.
type lifecycleEvent struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

// eventSeq returns the sequence number of one NDJSON event, which the
// server encodes as the leading "seq" field.
func eventSeq(line []byte) (int64, error) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"seq":`))
	if !ok {
		return 0, fmt.Errorf("event %.40q does not start with its seq", line)
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, fmt.Errorf("event %.40q has only a seq", line)
	}
	return strconv.ParseInt(string(rest[:end]), 10, 64)
}

// promSums sums the samples of a Prometheus text exposition by metric
// name, over all label sets.
func promSums(text string) map[string]float64 {
	sums := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		sums[name] += v
	}
	return sums
}

// runCounts reads one run's layer counters from its /runs/{id}/metrics
// exposition. The server does not export the kernel's dispatch count,
// so events stay 0.
func runCounts(m map[string]float64) layerCounts {
	var charged float64
	for _, name := range []string{"fp_ops", "int_ops", "shared_reads", "shared_writes", "sends", "recvs", "tx_commits", "tx_aborts"} {
		charged += m["stamp_group_"+name]
	}
	return layerCounts{
		chargedOps: int64(charged),
		memReads:   int64(m["stamp_mem_reads"]),
		memWrites:  int64(m["stamp_mem_writes"]),
		memStalled: int64(m["stamp_mem_stalled_accesses"]),
		delivered:  int64(m["stamp_net_messages_delivered"]),
		commits:    int64(m["stamp_stm_commits"]),
		aborts:     int64(m["stamp_stm_aborts"]),
	}
}

// serveLayers collects the per-layer numbers of traced rounds.
type serveLayers struct {
	submit, queue, exec, result, hit, ckpt []float64 // milliseconds
	retainedKB, metricsKB, scrapeMS        []float64 // per round
	events, streamKB, hitRatio             []float64 // per round
	counts                                 layerCounts
}

func (l *serveLayers) add(rd *roundResult) {
	var events, stream float64
	for _, rec := range rd.recs {
		if rec.err != nil {
			continue
		}
		events += float64(rec.events)
		stream += float64(rec.streamBytes)
		l.submit = append(l.submit, rec.submitMS)
		l.result = append(l.result, rec.resultMS)
		switch {
		case rec.cached:
			l.hit = append(l.hit, rec.latencyMS)
		default:
			l.queue = append(l.queue, rec.queueMS)
			l.exec = append(l.exec, rec.execMS)
			if rec.ckpt {
				l.ckpt = append(l.ckpt, rec.latencyMS)
			}
		}
	}
	n := float64(len(rd.recs))
	l.events = append(l.events, events/n)
	l.streamKB = append(l.streamKB, stream/n/1024)
	l.hitRatio = append(l.hitRatio, rd.hitRatio)
	l.retainedKB = append(l.retainedKB, rd.retainedKB/n)
	l.metricsKB = append(l.metricsKB, rd.metricsKB)
	l.scrapeMS = append(l.scrapeMS, rd.scrapeMS)
	l.counts = rd.counts
}

func (l *serveLayers) set(m map[string]float64) {
	l.counts.set(m)
	m["serve.submit_ms"] = median(l.submit)
	m["serve.queue_ms"] = median(l.queue)
	m["serve.exec_ms"] = median(l.exec)
	m["serve.result_ms"] = median(l.result)
	m["serve.hit_ms"] = median(l.hit)
	m["serve.ckpt_ms"] = median(l.ckpt)
	m["serve.events_per_run"] = median(l.events)
	m["serve.stream_kb_per_run"] = median(l.streamKB)
	m["serve.cache_hit_ratio"] = median(l.hitRatio)
	m["serve.retained_kb_per_run"] = median(l.retainedKB)
	m["serve.metrics_kb"] = median(l.metricsKB)
	m["serve.metrics_scrape_ms"] = median(l.scrapeMS)
}
