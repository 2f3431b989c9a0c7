package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tiermerge/internal/replica"
)

// span is one timed call the harness made into a layer. Spans of one
// session share Session (the root span's id); Parent is the span that
// caused this one (0 for a root). Times are nanoseconds since the tracer
// was created.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Session int64  `json:"session"`
	Client  int    `json:"client"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover;
	// filled in by selfTimes when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing, so the untraced pass runs the same harness code with one nil
// check per would-be span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(client int, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	sess := id
	if parent != 0 {
		sess = t.spans[parent-1].Session
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: sess, Client: client, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes fills every span's Self: its duration minus the total duration
// of its direct children. The harness never runs two children of one span
// at once, so children do not overlap and the subtraction is exact.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent != 0 {
			spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// durationsMs returns the durations of the closed spans called name, and
// their self times, in milliseconds.
func durationsMs(spans []span, name string) (total, self []float64) {
	for _, s := range spans {
		if s.Name == name && s.End != 0 {
			total = append(total, float64(s.End-s.Start)/1e6)
			self = append(self, float64(s.Self)/1e6)
		}
	}
	return total, self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport is the harness's replica.Transport wrapper: it times
// every Call as a span under the client's current parent. It belongs to
// one client goroutine, so parent needs no lock.
type timedTransport struct {
	inner  replica.Transport
	tr     *tracer
	client int
	parent int64
}

// Envelope kinds, recognised by the leading field of the JSON request
// (the envelope struct encodes Kind first).
var (
	mergePrefix    = []byte(`{"kind":"merge"`)
	checkoutPrefix = []byte(`{"kind":"checkout"`)
)

// frameKind names a request frame: "merge", "checkout" or "other".
func frameKind(payload []byte) string {
	switch {
	case bytes.HasPrefix(payload, mergePrefix):
		return "merge"
	case bytes.HasPrefix(payload, checkoutPrefix):
		return "checkout"
	default:
		return "other"
	}
}

// under makes parent the span the wrapper's next calls belong to; a nil
// wrapper (untraced pass) ignores it.
func (t *timedTransport) under(parent int64) {
	if t != nil {
		t.parent = parent
	}
}

func (t *timedTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	s := t.tr.begin(t.client, t.parent, "wire.call:"+frameKind(payload))
	resp, err := t.inner.Call(ctx, payload)
	t.tr.end(s)
	return resp, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }
