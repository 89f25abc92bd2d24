package sweep

import (
	"context"
	"errors"
	"fmt"

	"hwgc"
	"hwgc/internal/jobs"
)

// ErrLost reports a point execution that vanished without a result: its job
// was cancelled by another client, migrated to another backend, or
// forgotten by a backend that died before its WAL record landed. The
// Coordinator resubmits a lost point.
var ErrLost = errors.New("sweep: point lost")

// PointRunner executes sweep points on one execution tier. gcserved's runs
// them as jobs on its own job tier; gcfleet's routes each one to the
// backend owning its content key. The Coordinator calls Run from one
// goroutine per outstanding point.
type PointRunner interface {
	// Class resolves a submission's job class: "" selects the tier default,
	// and a class the tier does not serve is an ErrUnknownClass error.
	Class(name string) (string, error)
	// Cached returns a point's encoded CollectResponse when the tier already
	// holds it, so the point completes without running.
	Cached(key string) ([]byte, bool)
	// Run executes one point and blocks until it has a result or ctx ends.
	// It returns the encoded CollectResponse, whether it started a fresh
	// execution rather than joining an existing one, and an error wrapping
	// ErrLost when the execution vanished without a result.
	Run(ctx context.Context, class string, p hwgc.SweepPoint) (body []byte, fresh bool, err error)
	// Cancel stops a point's execution, best effort.
	Cancel(key string)
}

// localRunner runs points as collect jobs on this node's job tier,
// consulting the serving tier's result cache first.
type localRunner struct {
	jobs   *jobs.Manager
	lookup func(key string) ([]byte, bool)
}

func (r *localRunner) Class(name string) (string, error) {
	if name == "" {
		return r.jobs.DefaultClass(), nil
	}
	if !r.jobs.HasClass(name) {
		return "", fmt.Errorf("%w %q", ErrUnknownClass, name)
	}
	return name, nil
}

func (r *localRunner) Cached(key string) ([]byte, bool) {
	if r.lookup == nil {
		return nil, false
	}
	return r.lookup(key)
}

func (r *localRunner) Run(ctx context.Context, class string, p hwgc.SweepPoint) ([]byte, bool, error) {
	_, fresh, err := r.jobs.Submit(jobs.KindCollect, class, p.Canonical)
	if err != nil {
		return nil, false, err
	}
	switch state, errMsg := r.await(ctx, p.Key); state {
	case jobs.StateDone:
		body, _, err := r.jobs.Result(p.Key)
		return body, fresh, err
	case jobs.StateFailed:
		return nil, fresh, errors.New(errMsg)
	default: // cancelled, migrated, vanished, or ctx ended
		return nil, fresh, fmt.Errorf("%w: job %s", ErrLost, state)
	}
}

func (r *localRunner) Cancel(key string) {
	_, _ = r.jobs.Cancel(key) // ErrTerminal/ErrNotFound: nothing left to stop
}

// await blocks until the job reaches a terminal state or ctx ends (state
// ""). A job missing from the table — compacted away or never admitted —
// reads as cancelled, which resubmits it.
func (r *localRunner) await(ctx context.Context, key string) (jobs.State, string) {
	for {
		history, ch, stop, err := r.jobs.Subscribe(key)
		if err != nil {
			return jobs.StateCancelled, ""
		}
		for _, ev := range history {
			if ev.State.Terminal() {
				stop()
				return ev.State, ev.Error
			}
		}
	wait:
		for ch != nil {
			select {
			case <-ctx.Done():
				stop()
				return "", ""
			case ev, ok := <-ch:
				if !ok {
					break wait
				}
				if ev.State.Terminal() {
					stop()
					return ev.State, ev.Error
				}
			}
		}
		stop()
		// The stream ended without a terminal event in hand: a full
		// subscriber buffer dropped it, or it fell out of the bounded
		// history. Ask the table; a non-terminal answer means a revival raced
		// the close, so subscribe to the fresh event log.
		info, err := r.jobs.Get(key)
		if err != nil {
			return jobs.StateCancelled, ""
		}
		if info.State.Terminal() {
			return info.State, info.Error
		}
	}
}
