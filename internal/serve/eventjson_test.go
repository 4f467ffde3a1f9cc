package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// encoderEvents returns the encoder's test events: every event of one
// streamed jacobi run with a checkpoint and a fault, then strings that
// encoding/json escapes, events with every optional field empty, and
// extreme integers.
func encoderEvents(t testing.TB) []obs.Event {
	norm, err := Spec{App: "jacobi", N: 4, Iters: 4, Ckpt: &CkptSpec{Every: 2},
		Fault: &FaultSpec{Failures: []CoreFailureSpec{{Core: 0, At: 60}}}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	ob := obs.NewObserver()
	ob.Trace.StreamTo(func(ev obs.Event) { evs = append(evs, ev) })
	Execute(norm, ob, nil)
	if len(evs) == 0 {
		t.Fatal("the jacobi run streamed no events")
	}
	for _, s := range []string{
		`say "hi"`, `back\slash`, "a<b", "a>b", "fish & chips", "</script>",
		"tab\there", "nl\n", "cr\r", "nul\x00", "\x1f", "del\x7f",
		"bad \xff utf-8", "\xc3", "\xed\xa0\x80", "line\u2028sep", "para\u2029sep",
		"héllo", "日本", "emoji 🙂", "\ufffd",
	} {
		evs = append(evs, obs.Event{Seq: 1, Kind: s, Proc: s, Cat: s, Name: s, Detail: s})
	}
	evs = append(evs,
		obs.Event{},
		obs.Event{Kind: obs.EvBarrier, Gen: 3},
		obs.Event{Seq: 7, At: 9, Kind: obs.EvSpanClose, Span: 4},
		obs.Event{Kind: evRun, Name: "queued", Parent: 2},
		obs.Event{Seq: -1, At: -2, Kind: "x", Span: -3, Parent: -4, Gen: -5},
		obs.Event{Seq: math.MaxInt64, At: sim.Time(math.MinInt64), Kind: "x",
			Span: math.MaxInt64, Parent: math.MinInt64, Gen: math.MinInt64},
	)
	return evs
}

// checkEncoder fails unless appendEventJSON writes ev as encoding/json's
// Encoder does, minus its trailing newline, and leaves b's prefix alone.
func checkEncoder(t *testing.T, ev obs.Event) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ev); err != nil {
		t.Fatal(err)
	}
	got := append(appendEventJSON([]byte("prefix"), &ev), '\n')
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("event %+v:\n got %s\nwant %s", ev, got[len("prefix"):], want.Bytes())
	}
}

func TestAppendEventJSONMatchesEncodingJSON(t *testing.T) {
	for _, ev := range encoderEvents(t) {
		checkEncoder(t, ev)
	}
}

func FuzzAppendEventJSON(f *testing.F) {
	for _, ev := range encoderEvents(f) {
		f.Add(ev.Seq, int64(ev.At), ev.Kind, ev.Proc, ev.Cat, ev.Name, ev.Detail,
			int64(ev.Span), int64(ev.Parent), ev.Gen)
	}
	f.Fuzz(func(t *testing.T, seq, at int64, kind, proc, cat, name, detail string, span, parent, gen int64) {
		checkEncoder(t, obs.Event{Seq: seq, At: sim.Time(at), Kind: kind, Proc: proc, Cat: cat,
			Name: name, Detail: detail, Span: obs.SpanID(span), Parent: obs.SpanID(parent), Gen: gen})
	})
}
