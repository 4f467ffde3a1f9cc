package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenTracer builds a small deterministic span tree:
// proc ⊃ unit ⊃ round, one instant, on two processes.
func goldenTracer() *Tracer {
	tr := NewTracer()
	p0 := tr.Begin(0, "w/0", "proc", "w/0", 0)
	u0 := tr.Begin(0, "w/0", "unit", "unit 0", p0)
	r0 := tr.Begin(2, "w/0", "round", "round 0", u0)
	tr.Instant(3, "w/0", "msg", "send", "to w/1", r0)
	tr.End(r0, 10)
	tr.End(u0, 11)
	p1 := tr.Begin(0, "w/1", "proc", "w/1", 0)
	tr.Instant(5, "w/1", "tx", "commit", "attempts 1", p1)
	tr.End(p1, 9)
	tr.End(p0, 12)
	return tr
}

func TestBeginEndSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	id := tr.Begin(5, "p", "proc", "p", 0)
	if id == 0 {
		t.Fatal("Begin returned the null span id")
	}
	tr.End(id, 9)
	tr.End(id, 99) // double-End is ignored
	s := tr.Spans()[0]
	if s.Start != 5 || s.End != 9 || s.T() != 4 {
		t.Fatalf("span %+v", s)
	}
	// Nil tracer: everything no-ops.
	var nilTr *Tracer
	if nilTr.Enabled() || nilTr.Begin(0, "p", "proc", "p", 0) != 0 || nilTr.Len() != 0 {
		t.Fatal("nil tracer not inert")
	}
	nilTr.End(1, 2)
	nilTr.Instant(0, "p", "app", "x", "", 0)
}

// TestWriteChromeGolden pins the exact Chrome trace-event JSON bytes.
// Regenerate with: go test ./internal/obs -run Golden -update-golden
func TestWriteChromeGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenTracer().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("chrome JSON drifted from golden:\n got:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

// TestWriteChromeFieldValidity checks the structural contract viewers
// rely on: a traceEvents array whose events all carry ph/ts/pid/tid,
// complete ("X") events carry dur, instants carry s, and every process
// has a thread_name metadata record.
func TestWriteChromeFieldValidity(t *testing.T) {
	var b bytes.Buffer
	if err := goldenTracer().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &file); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if file.Unit != "ms" {
		t.Fatalf("displayTimeUnit %q", file.Unit)
	}
	named := map[string]bool{}
	var complete, instants int
	for _, ev := range file.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			args := ev["args"].(map[string]any)
			named[args["name"].(string)] = true
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
			complete++
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant scope %v", ev["s"])
			}
			instants++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if !named["w/0"] || !named["w/1"] {
		t.Fatalf("missing thread_name metadata: %v", named)
	}
	if complete != 4 || instants != 2 {
		t.Fatalf("complete=%d instants=%d, want 4 and 2", complete, instants)
	}
}

func TestTimelineShape(t *testing.T) {
	tr := NewTracer()
	a := tr.Begin(0, "a", "proc", "a", 0)
	tr.End(tr.Begin(0, "a", "round", "round 0", a), 50)
	tr.End(a, 50)
	b := tr.Begin(50, "b", "proc", "b", 0)
	tr.End(tr.Begin(50, "b", "round", "round 0", b), 100)
	tr.End(b, 100)
	tl := tr.Timeline(40)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines: %v", lines)
	}
	if !strings.Contains(lines[0], "t=[0,100]") {
		t.Fatalf("header %q", lines[0])
	}
	aRow, bRow := lines[1], lines[2]
	if !strings.HasPrefix(aRow, "a") || !strings.HasPrefix(bRow, "b") {
		t.Fatalf("lane order: %q %q", aRow, bRow)
	}
	// a is busy in the first half, b in the second.
	aBusyFirst := strings.Index(aRow, "#")
	bBusyFirst := strings.Index(bRow, "#")
	if aBusyFirst >= bBusyFirst {
		t.Fatalf("lane activity misplaced: a@%d b@%d", aBusyFirst, bBusyFirst)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if !strings.Contains(NewTracer().Timeline(30), "no events") {
		t.Fatal("empty timeline wrong")
	}
}
