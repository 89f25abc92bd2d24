package hwgc

import (
	"fmt"

	"hwgc/internal/core"
	"hwgc/internal/snapshot"
)

// This file exposes checkpoint/restore for the simulator: a collection can
// be suspended between any two clock cycles, serialized to a snapshot, and
// later resumed — in the same process or another one — finishing with
// Stats and heap image bit-identical to the uninterrupted run. It is the
// software stand-in for the FPGA prototype's state readback (paper Section
// VI-A); cmd/gcreplay builds record/resume/bisect on it and gcserved uses
// it for preempt/resume of heavy requests.

// Collection is an in-progress, suspendable collection cycle: drive it
// with StepCycles, Snapshot it between cycles, and Finish it.
type Collection = core.Run

// StartCollection begins a collection over h without running it. The heap
// is owned by the collection until Finish returns.
func StartCollection(h *Heap, cfg Config) (*Collection, error) {
	return core.Start(h, nil, cfg, false)
}

// ResumeCollection reconstructs a suspended collection from snapshot bytes
// produced by Collection.Snapshot. The restored collection owns a private
// copy of the captured heap.
func ResumeCollection(data []byte) (*Collection, error) { return core.Restore(data) }

// DiffSnapshots decodes two snapshots and returns their field-level
// differences, one line per differing field (capped), skipping the named
// top-level fields. Identical snapshots yield an empty slice.
func DiffSnapshots(a, b []byte, ignore ...string) ([]string, error) {
	sa, err := snapshot.Decode(a)
	if err != nil {
		return nil, fmt.Errorf("hwgc: snapshot a: %w", err)
	}
	sb, err := snapshot.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("hwgc: snapshot b: %w", err)
	}
	return snapshot.Diff(sa, sb, ignore...), nil
}

// RequestCollection is a suspendable variant of NewCollectResponse: the
// Collection a canonical CollectRequest describes. It can checkpoint
// between cycles and resume in a later process, and its Response is
// byte-identical to the uninterrupted NewCollectResponse encoding (which is
// a RequestCollection run straight through). gcserved and the jobs tier use
// it to preempt collections and resume them later.
type RequestCollection struct {
	*Collection
	req CollectRequest // canonicalized
	key string
}

// StartCollectRequest canonicalizes req, builds its heap and begins the
// collection, suspended at cycle 0.
func StartCollectRequest(req CollectRequest) (*RequestCollection, error) {
	return startRequest(req, core.Start)
}

// ResumeCollectRequest reconstructs a suspended request collection from a
// snapshot taken by its Snapshot method. The request must be the same one
// the snapshot was taken under (the configs are cross-checked); the pre-GC
// verification graph and the plan statistics are rebuilt deterministically
// from the request, the machine state comes from the snapshot.
func ResumeCollectRequest(req CollectRequest, snap []byte) (*RequestCollection, error) {
	return startRequest(req, func(h *Heap, p *Plan, cfg Config, verify bool) (*Collection, error) {
		return core.Resume(h, p, cfg, verify, snap)
	})
}

// startRequest canonicalizes req, builds the fresh heap and plan it
// describes (deterministically: the same canonical request always builds
// the same heap image) and hands them to begin.
func startRequest(req CollectRequest, begin func(*Heap, *Plan, Config, bool) (*Collection, error)) (*RequestCollection, error) {
	key, err := req.Key() // canonicalizes req in place
	if err != nil {
		return nil, err
	}
	var h *Heap
	p := req.Plan
	if p != nil {
		if h, err = p.BuildHeap(core.DefaultHeadroom); err != nil {
			return nil, fmt.Errorf("hwgc: building plan: %w", err)
		}
	} else if h, p, err = core.BuildBench(req.Bench, req.Scale, req.Seed); err != nil {
		return nil, err
	}
	c, err := begin(h, p, req.Config, req.Verify)
	if err != nil {
		return nil, err
	}
	return &RequestCollection{Collection: c, req: req, key: key}, nil
}

// Key returns the canonical request hash (the serving tier's cache key).
func (rc *RequestCollection) Key() string { return rc.key }

// Response finishes the collection (driving it to completion if needed),
// verifies it when the request asked for verification, and returns the
// response — byte-identical, once encoded, to what NewCollectResponse
// produces for the same request uninterrupted.
func (rc *RequestCollection) Response() (*CollectResponse, error) {
	resp := &CollectResponse{Key: rc.key, Bench: rc.req.Bench, Scale: rc.req.Scale, Seed: rc.req.Seed}
	if rc.req.Plan != nil {
		resp.Bench = "plan"
	}
	var err error
	if resp.Result, err = rc.Result(resp.Bench); err != nil {
		return nil, err
	}
	return resp, nil
}
