// Package jobs implements gcjobs, the durable asynchronous job subsystem
// behind gcserved's /v1/jobs endpoints. It turns the synchronous serving
// tier into one that can accept work it cannot finish immediately: a
// write-ahead log (append-only, CRC-framed like internal/snapshot) persists
// every submission and state transition, a scheduler shares the runner pool
// across priority classes with weighted fair queuing and anti-starvation
// aging, and long-running collections are preempted at checkpoint
// boundaries — reusing the snapshot machinery of hwgc.Collection — when
// higher-priority work is waiting, so a 16-core sweep no longer blocks a
// one-shot collect.
//
// The design carries the paper's synchronization discipline to the job
// level: the uncontended path is free (a lone job runs checkpoint to
// checkpoint without ever being interrupted), contention is bounded (a
// preempted job loses at most the work since its last checkpoint, which is
// zero — the snapshot restore contract makes resumed results bit-identical),
// and every stall is accounted for (per-class queue depth, preemption,
// resume and WAL fsync metrics).
//
// Job lifecycle:
//
//	queued -> running -> done | failed | cancelled | migrated
//	            ^  |
//	            |  v           (preemption / drain / crash, always at a
//	         checkpointed       checkpoint boundary)
//
// Submissions are idempotent: the job ID is the content address of the
// canonical request (hwgc.KeyBytes), so resubmitting a request — or
// replaying a submission from the WAL after a crash — dedupes onto the
// same job and the same result.
package jobs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hwgc/internal/stream"
)

// State is a job's position in its lifecycle.
type State string

// The job states, in lifecycle order. Checkpointed means "preempted at a
// checkpoint boundary and waiting to be rescheduled"; it is a queue state,
// not a terminal one. Migrated means "handed off to another backend via a
// checkpoint export" — terminal locally, but the job lives on elsewhere.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
	StateCancelled    State = "cancelled"
	StateMigrated     State = "migrated"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateMigrated
}

// Job kinds.
const (
	KindCollect = "collect"
	KindSweep   = "sweep"
)

// ClassConfig names one priority class and its fair-share weight. A class
// with weight w receives w shares of runner time while backlogged, and its
// jobs preempt running jobs of strictly lower-weight classes at their next
// checkpoint boundary.
type ClassConfig struct {
	Name   string
	Weight int
}

// DefaultClasses is the class set used when none is configured: interactive
// work outweighs (and preempts) batch work 8:1. The first class is the
// default for submissions that do not name one.
const DefaultClasses = "interactive:8,batch:1"

// ParseClasses parses a "name:weight,name:weight" class specification.
// Names must be unique, non-empty and metric-label safe; weights positive.
func ParseClasses(spec string) ([]ClassConfig, error) {
	if spec == "" {
		spec = DefaultClasses
	}
	var out []ClassConfig
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("jobs: class %q: want name:weight", part)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("jobs: class %q: empty name", part)
		}
		for _, r := range name {
			if !(r == '-' || r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				return nil, fmt.Errorf("jobs: class name %q: only letters, digits, - and _ allowed", name)
			}
		}
		if seen[name] {
			return nil, fmt.Errorf("jobs: duplicate class %q", name)
		}
		seen[name] = true
		w, err := strconv.Atoi(strings.TrimSpace(weightStr))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("jobs: class %q: weight must be a positive integer", part)
		}
		out = append(out, ClassConfig{Name: name, Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("jobs: class spec %q names no classes", spec)
	}
	return out, nil
}

// Info is the externally visible snapshot of one job, served as JSON by
// GET /v1/jobs/{id} and embedded in submit responses and SSE events.
type Info struct {
	ID    string
	Kind  string // "collect" or "sweep"
	Class string
	State State
	// Point/Points report sweep progress (completed points / total points);
	// for collect jobs Points is 1.
	Point  int
	Points int
	// Cycle is the clock cycle of the newest checkpoint within the current
	// point (0 before the first checkpoint).
	Cycle int64
	// Preemptions counts how many times this job was preempted at a
	// checkpoint boundary.
	Preemptions int64
	Error       string    `json:",omitempty"`
	Submitted   time.Time `json:",omitempty"`
	Started     time.Time `json:",omitempty"` // first dispatch
	Finished    time.Time `json:",omitempty"` // terminal transition
}

// Event is one job lifecycle notification, streamed over SSE by
// GET /v1/jobs/{id}/events with the State as the event name.
type Event struct {
	Seq   int64
	Time  time.Time
	State State
	Point int
	Cycle int64
	Error string `json:",omitempty"`
}

// Stamped implements stream.Event.
func (ev Event) Stamped(seq int64, at time.Time) Event {
	ev.Seq, ev.Time = seq, at
	return ev
}

// Frame implements stream.Event: a terminal state ends the stream.
func (ev Event) Frame() (int64, string, bool) { return ev.Seq, string(ev.State), ev.State.Terminal() }

// newEventLog returns an empty job event log. Its replay history keeps the
// newest 256 events — sweep jobs emit one per point transition and
// preemption, so that covers MaxSweepPoints plus preemption storms — and a
// subscriber that stops draining (a stalled SSE client) loses events rather
// than blocking the runner: the WAL is the authoritative record.
func newEventLog(clock func() time.Time) *stream.Log[Event] {
	return stream.NewLog[Event](256, 32, clock)
}
