package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hwgc"
	"hwgc/internal/sweep"
)

// sweepPointInflight bounds how many sweep points the proxy drives at once.
// The fleet fans points out across backends by content key, so the real
// parallelism is the backends' runner pools; this only caps the proxy's
// outstanding submissions and result polls.
const sweepPointInflight = 8

// ringRunner is gcfleet's sweep.PointRunner. The proxy plans a space with
// the same canonical planner the backends use, so the sweep ID and every
// point key are identical fleet-wide; each point's job goes to the backend
// owning its content key, and the frontier aggregates at the proxy
// byte-identical to what a single gcserved would serve for the same space.
type ringRunner struct {
	f   *Fleet
	sem chan struct{}
}

func newRingRunner(f *Fleet) *ringRunner {
	return &ringRunner{f: f, sem: make(chan struct{}, sweepPointInflight)}
}

// Class passes the class through: the backends own the class set, and
// their 400 for an unknown class fails the point.
func (r *ringRunner) Class(name string) (string, error) { return name, nil }

// Cached reports nothing: the cache lives on the backends, and submitting a
// cached point there dedupes onto its result anyway.
func (r *ringRunner) Cached(string) ([]byte, bool) { return nil, false }

// Run submits the point to its ring owner, then polls its result with ring
// failover. A 404 or 410 means the current owner does not (or no longer)
// know the job — it died before its WAL record landed, the job migrated
// mid-poll, or a direct client cancelled it — which the coordinator
// resubmits. Transport turbulence (all breakers open, a fleet restart
// window) is retried on the poll interval until ctx ends.
func (r *ringRunner) Run(ctx context.Context, class string, p hwgc.SweepPoint) ([]byte, bool, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-r.sem }()
	body, err := json.Marshal(struct {
		Collect json.RawMessage
		Class   string `json:",omitempty"`
	}{Collect: p.Canonical, Class: class})
	if err != nil {
		return nil, false, fmt.Errorf("encoding point: %v", err)
	}
	var fresh bool
	for {
		// The submission runs to its reply even when ctx ends mid-exchange,
		// so a Cancel that follows this Run reaches the owner after it.
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), r.f.opts.Timeout)
		res, err := r.f.do(sctx, http.MethodPost, "/v1/jobs", p.Key, body)
		cancel()
		if err == nil && (res.status == http.StatusAccepted || res.status == http.StatusOK) {
			// Remember the canonical submission so the elastic rebalance
			// pass can rescue this point from a dead owner, exactly like a
			// directly submitted job.
			r.f.registry.Record(p.Key, body)
			fresh = res.status == http.StatusAccepted
			break
		}
		if err == nil && res.status >= 400 && res.status < 500 {
			return nil, false, fmt.Errorf("point rejected: status %d: %s", res.status, res.body)
		}
		if err := r.f.sleep(ctx, r.f.opts.SweepPoll); err != nil {
			return nil, false, err
		}
	}
	for {
		if err := r.f.sleep(ctx, r.f.opts.SweepPoll); err != nil {
			return nil, fresh, err
		}
		// A 202 (still running) and every routing error — 5xx turbulence,
		// ErrNoBackends while breakers cool down, attempt exhaustion — leave
		// the point to the next poll: they are transient during topology
		// changes.
		res, err := r.f.do(ctx, http.MethodGet, "/v1/jobs/"+p.Key+"/result", p.Key, nil)
		switch {
		case err != nil:
		case res.status == http.StatusOK:
			return res.body, fresh, nil
		case res.status == http.StatusNotFound, res.status == http.StatusGone:
			return nil, fresh, fmt.Errorf("%w: status %d", sweep.ErrLost, res.status)
		case res.status == http.StatusBadGateway:
			// The owner answered authoritatively: the job itself failed.
			return nil, fresh, fmt.Errorf("point failed: %s", res.body)
		}
	}
}

// Cancel deletes the point's job on its owner, best effort, and forgets
// it in the rescue registry once the owner confirms.
func (r *ringRunner) Cancel(key string) {
	ctx, cancel := context.WithTimeout(context.Background(), r.f.opts.Timeout)
	defer cancel()
	if res, err := r.f.do(ctx, http.MethodDelete, "/v1/jobs/"+key, key, nil); err == nil && res.status == http.StatusOK {
		r.f.registry.Forget(key)
	}
}
