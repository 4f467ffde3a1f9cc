package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestMetricsMatchServer runs one spec per app through stampsim and
// through an in-process stampserve: both front ends must normalize it
// to the same scenario hash, and stampsim's -metrics-out bytes must
// equal the run registry GET /runs/{id}/metrics serves.
func TestMetricsMatchServer(t *testing.T) {
	s := serve.New(2, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	dir := t.TempDir()
	for _, c := range []struct{ args, spec string }{
		{"-app jacobi -n 8", `{"app":"jacobi","n":8}`},
		{"-app apsp -n 8 -mode bulksync", `{"app":"apsp","n":8,"mode":"bulksync"}`},
		{"-app bank -n 16 -procs 4 -manager karma", `{"app":"bank","n":16,"procs":4,"manager":"karma"}`},
		{"-app airline -n 8 -policy strict -seed 3", `{"app":"airline","n":8,"policy":"strict","seed":3}`},
	} {
		cl, err := parse(strings.Fields(c.args), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		spec := cl.spec
		prom := filepath.Join(dir, spec.App+".prom")
		var stderr bytes.Buffer
		if code := run(append(strings.Fields(c.args), "-metrics-out", prom), io.Discard, &stderr); code != 0 {
			t.Fatalf("stampsim %s exited %d: %s", c.args, code, stderr.Bytes())
		}
		local, err := os.ReadFile(prom)
		if err != nil {
			t.Fatal(err)
		}

		var sub struct{ ID, Hash string }
		if err := json.Unmarshal(httpDo(t, "POST", ts.URL+"/runs", c.spec), &sub); err != nil {
			t.Fatal(err)
		}
		if sub.Hash != spec.Hash() {
			t.Errorf("%s: stampserve hashes %s as %s, stampsim's spec as %s", c.spec, c.spec, sub.Hash, spec.Hash())
		}
		waitFinished(t, ts.URL+"/runs/"+sub.ID)
		if remote := httpDo(t, "GET", ts.URL+"/runs/"+sub.ID+"/metrics", ""); !bytes.Equal(local, remote) {
			t.Errorf("%s: stampsim -metrics-out differs from /runs/%s/metrics:\n%s\nvs\n%s", c.args, sub.ID, local, remote)
		}
	}
}

// httpDo sends a request with an optional JSON body and returns the
// response body, failing the test unless the status is 2xx.
func httpDo(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	return b
}

// waitFinished polls a run's status until it is done; any other
// terminal state fails the test.
func waitFinished(t *testing.T, url string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var st struct{ State string }
		if err := json.Unmarshal(httpDo(t, "GET", url, ""), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "failed", "timeout":
			t.Fatalf("%s ended %s", url, st.State)
		}
	}
	t.Fatalf("%s did not finish", url)
}
