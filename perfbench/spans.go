package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one host-time interval around a call into a layer. Times are
// nanoseconds since the run started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog is the untraced run: every method is a no-op.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(l.spans)
}

// end closes span id and returns its duration in milliseconds.
func (l *spanLog) end(id int) float64 {
	if l == nil || id == 0 {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = now
	return float64(s.End-s.Start) / 1e6
}

// write saves the spans and the run's context as one JSON document.
func (l *spanLog) write(path string, ctx runContext) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Context runContext `json:"context"`
		Spans   []span     `json:"spans"`
	}{ctx, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
