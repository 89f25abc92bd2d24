package cluster

import (
	"slices"
	"sync"
)

// jobRegistry remembers the canonical POST /v1/jobs body of every job the
// fleet has routed, keyed by job ID (the request's content key). It is the
// migration driver's rescue path: when a backend dies before its jobs can
// be checkpoint-exported, the registry lets the driver resubmit them to the
// new key owner from scratch — determinism makes the re-run's result
// byte-identical, so a dead backend costs time, never answers.
//
// The registry is bounded FIFO: beyond the limit the oldest entries are
// evicted. An evicted job can no longer be rescued from a dead backend, but
// it remains migratable the normal way (checkpoint export from a live one).
type jobRegistry struct {
	mu    sync.Mutex
	limit int
	ids   []string // insertion order, for eviction
	body  map[string][]byte
}

func newJobRegistry(limit int) *jobRegistry {
	if limit <= 0 {
		limit = 4096
	}
	return &jobRegistry{limit: limit, body: make(map[string][]byte)}
}

// Record remembers one routed submission. Re-recording an existing ID
// refreshes nothing: the body is content-addressed, so it cannot change.
func (r *jobRegistry) Record(id string, body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.body[id]; ok {
		return
	}
	for len(r.ids) >= r.limit {
		delete(r.body, r.ids[0])
		r.ids = r.ids[1:]
	}
	r.ids = append(r.ids, id)
	r.body[id] = append([]byte(nil), body...)
}

// Forget drops id once a cancel made its job unwanted, so no later rescue
// resubmits it.
func (r *jobRegistry) Forget(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.body[id]; ok {
		delete(r.body, id)
		r.ids = slices.DeleteFunc(r.ids, func(x string) bool { return x == id })
	}
}

// Snapshot returns a copy of the registry for one rebalance pass.
func (r *jobRegistry) Snapshot() map[string][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]byte, len(r.body))
	for id, b := range r.body {
		out[id] = b
	}
	return out
}

// Len returns the number of remembered submissions.
func (r *jobRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.body)
}
