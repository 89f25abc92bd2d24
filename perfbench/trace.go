package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is the ID of the enclosing span (-1 for a
// root). Op identifies the operation the span belongs to (one collection or
// one request); Group is the unit per-layer numbers are aggregated over: the
// pass for library workloads, the request for served ones.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Group  int64  `json:"group"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: every method is a no-op, so traced and untraced runs share
// their code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its ID (-1 when untraced).
func (r *recorder) start(name string, parent int32, op, group int64) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: now, ID: id, Parent: parent, Op: op, Group: group})
	r.mu.Unlock()
	return id
}

// stop closes span id. rename, when non-empty, replaces the span's name: a
// server span learns whether it was a cache hit only once it has ended.
func (r *recorder) stop(id int32, rename string) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	if rename != "" {
		r.spans[id].Name = rename
	}
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per group and span name, the summed self time in
// nanoseconds: each span's duration minus the durations of its children.
func selfTimes(spans []span) map[int64]map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int64]map[string]int64{}
	for _, s := range spans {
		g := out[s.Group]
		if g == nil {
			g = map[string]int64{}
			out[s.Group] = g
		}
		g[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// writeSpans writes every recorded span as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
