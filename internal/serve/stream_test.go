package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenScenarios between them stream every event kind: run lifecycle,
// span open and close, instants, barriers, profile deltas, a checkpoint
// commit and a fault firing. The second ends "failed" in a deadlock, so
// its terminal event carries the error as its detail.
var goldenScenarios = []string{
	`{"app":"jacobi","n":4,"iters":4,"ckpt":{"every":2},"fault":{"failures":[{"core":0,"at":60}]}}`,
	`{"app":"jacobi","n":6,"iters":4,"fault":{"failures":[{"core":0,"at":30}]}}`,
}

// getSSE fetches url as a server-sent event stream.
func getSSE(t *testing.T, url string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
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

// checkGolden compares got with testdata/name, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s: line %d differs:\n got %s\nwant %s", name, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(g), len(w))
}

// TestStreamGolden pins the streamed bytes: each scenario's NDJSON,
// followed live, and its SSE replay must equal the goldens; a cache
// hit must replay its primary's NDJSON, and a ?from=k cursor the
// primary's lines after the k-th.
func TestStreamGolden(t *testing.T) {
	_, ts := newTestServer(t, 1)
	var ndjson, sse []byte
	primary := make([][]byte, len(goldenScenarios))
	for i, spec := range goldenScenarios {
		url := ts.URL + "/runs/" + postSpec(t, ts.URL, spec)["id"].(string) + "/events"
		primary[i] = getBody(t, url)
		ndjson = append(ndjson, primary[i]...)
		sse = append(sse, getSSE(t, url)...)
	}
	checkGolden(t, "stream.ndjson", ndjson)
	checkGolden(t, "stream.sse", sse)

	const k = 10
	for i, spec := range goldenScenarios {
		hit := postSpec(t, ts.URL, spec)
		if hit["cached"] != true {
			t.Fatalf("resubmitted %s was not a cache hit", spec)
		}
		url := ts.URL + "/runs/" + hit["id"].(string) + "/events"
		if got := getBody(t, url); !bytes.Equal(got, primary[i]) {
			t.Errorf("cache hit of %s streamed other bytes than its primary:\n%s", spec, got)
		}
		want := bytes.Join(bytes.SplitAfter(primary[i], []byte("\n"))[k:], nil)
		if got := getBody(t, url+"?from="+strconv.Itoa(k)); !bytes.Equal(got, want) {
			t.Errorf("%s ?from=%d:\n got %s\nwant %s", spec, k, got, want)
		}
	}
}

// TestStreamFollowsLiveRun holds the worker right after it logs the
// run's "started" event: a reader following the stream must receive
// the lines logged so far while the run is still live (the handler
// flushes them), and the rest once it goes on.
func TestStreamFollowsLiveRun(t *testing.T) {
	_, ts, release := newHeldServer(t, 1)
	id := postSpec(t, ts.URL, `{"app":"jacobi","n":4,"iters":2}`)["id"].(string)
	resp, err := http.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		b   []byte
		err error
	}
	lines := make(chan line)
	rd := bufio.NewReader(resp.Body)
	go func() {
		for {
			b, err := rd.ReadBytes('\n')
			lines <- line{b, err}
			if err != nil {
				return
			}
		}
	}()
	recv := func() line {
		t.Helper()
		select {
		case l := <-lines:
			return l
		case <-time.After(10 * time.Second):
			t.Fatal("no event within 10s")
			return line{}
		}
	}
	decode := func(b []byte) map[string]any {
		t.Helper()
		var ev map[string]any
		if err := json.Unmarshal(b, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", b, err)
		}
		return ev
	}
	for _, want := range []string{"queued", "started"} {
		l := recv()
		if l.err != nil {
			t.Fatalf("stream ended before the run's %q event: %v", want, l.err)
		}
		if ev := decode(l.b); ev["kind"] != "run" || ev["name"] != want {
			t.Fatalf("live stream gave %v, want the run's %q event", ev, want)
		}
	}
	release()
	var last map[string]any
	l := recv()
	for ; l.err == nil; l = recv() {
		last = decode(l.b)
	}
	if l.err != io.EOF || len(l.b) != 0 {
		t.Fatalf("stream ended with %v after %q", l.err, l.b)
	}
	if last["kind"] != "run" || last["name"] != "done" {
		t.Fatalf("stream ended with %v, want the run's done event", last)
	}
}

// TestRunLogWakesOnlyWaitingReaders pins the log's wake protocol: a
// reader with nothing left to write gets a channel that the next append
// or state change closes, an append with no reader waiting makes none,
// and a finished run hands out no channel at all.
func TestRunLogWakesOnlyWaitingReaders(t *testing.T) {
	run := &Run{state: "running"}
	run.appendEvent(obs.Event{Kind: evRun, Name: "started"})
	if run.wake != nil {
		t.Fatal("an append with no reader waiting made a wake channel")
	}
	_, lines, wake := run.since(0)
	if len(lines) != 1 || wake != nil {
		t.Fatalf("since(0) = %d lines, wake %v; want the logged line and no channel", len(lines), wake)
	}
	_, _, wake = run.since(1)
	if wake == nil {
		t.Fatal("a live run gave a reader with nothing to write no wake channel")
	}
	run.appendEvent(obs.Event{Kind: obs.EvBarrier, Gen: 1})
	select {
	case <-wake:
	default:
		t.Fatal("an append did not wake the waiting reader")
	}
	_, _, wake = run.since(2)
	run.setState("done", nil)
	select {
	case <-wake:
	default:
		t.Fatal("the terminal state change did not wake the waiting reader")
	}
	if _, _, wake := run.since(2); wake != nil {
		t.Fatal("a finished run handed a reader a wake channel")
	}
}
