package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The traced run's span recorder. Spans are recorded in this package
// around the calls it makes into each layer's public functions, held in
// memory, and written out once when the run ends; the program under test
// is not instrumented beyond the obs tracer and counters it already has.
//
// A nil *recorder is the untraced path: every method is a no-op.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // index of the op the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the recorder start
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's dotted prefix: the module the call entered.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

type recorder struct {
	t0    time.Time
	op    int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name,
		Start: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

// startAt and endAt record a span whose times were taken elsewhere.
func (r *recorder) startAt(name string, parent int, at time.Time) int {
	id := r.start(name, parent)
	r.spans[id-1].Start = at.Sub(r.t0).Nanoseconds()
	return id
}

func (r *recorder) endAt(id int, at time.Time) { r.spans[id-1].End = at.Sub(r.t0).Nanoseconds() }

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
}

// last returns the id of the most recent span named name, 0 if none.
func (r *recorder) last(name string) int {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == name {
			return r.spans[i].ID
		}
	}
	return 0
}

// selfMSByLayer sums, per layer, each span's self time: its duration
// minus its direct children's durations (children run one after another,
// so their durations add).
func (r *recorder) selfMSByLayer() map[string]float64 {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.layer()] += ms(s.dur() - child[s.ID])
	}
	return out
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
