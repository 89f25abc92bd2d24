package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"hwgc"
	"hwgc/internal/snapshot"
)

// ErrPreempted reports a collect job that was checkpointed to disk and
// stopped because the server is draining; the client gets 503 and the next
// server process (or the next request for the same key) resumes from the
// checkpoint instead of starting over.
var ErrPreempted = errors.New("server: job preempted by shutdown (checkpointed)")

// draining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// loadCheckpoint returns the request and snapshot of key's checkpoint
// file; ok is false when there is none to resume. A file that cannot be
// resumed — unreadable, without a request, or holding a request whose
// content key is not the file's — is reclaimed: it would fail every future
// resume the same way, and running its request under key would cache one
// request's response under another's key.
func (s *Server) loadCheckpoint(key string) (req hwgc.CollectRequest, snap []byte, ok bool) {
	path := snapshot.Path(s.opts.CheckpointDir, key)
	ck, err := snapshot.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return req, nil, false
	}
	if err == nil && hwgc.KeyBytes(ck.Request) == key && json.Unmarshal(ck.Request, &req) == nil {
		return req, ck.Snap, true
	}
	s.reclaimCheckpoint(key)
	return hwgc.CollectRequest{}, nil, false
}

// reclaimCheckpoint deletes key's checkpoint file, counting it reclaimed.
func (s *Server) reclaimCheckpoint(key string) {
	if snapshot.Remove(snapshot.Path(s.opts.CheckpointDir, key)) == nil {
		s.metrics.checkpointsReclaimed.Add(1)
	}
}

// runCheckpointed is the collect execution path when checkpointing is
// enabled: it resumes from an on-disk checkpoint if one exists, steps the
// simulation in CheckpointCycles slices, persists a checkpoint file after
// each slice, and — when the server starts draining — stops at the next
// slice boundary with ErrPreempted, leaving the freshest checkpoint behind.
// A finished job removes its checkpoint and returns the exact bytes the
// uninterrupted path would have produced (the snapshot restore contract
// guarantees bit-identical Stats, so cached and recovered responses agree).
func (s *Server) runCheckpointed(req hwgc.CollectRequest) ([]byte, error) {
	reqJSON, err := req.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	key := hwgc.KeyBytes(reqJSON)
	path := snapshot.Path(s.opts.CheckpointDir, key)

	var rc *hwgc.RequestCollection
	if _, snap, ok := s.loadCheckpoint(key); ok {
		if rc, err = hwgc.ResumeCollectRequest(req, snap); err != nil {
			// A stale or corrupt checkpoint must not wedge the key: reclaim
			// the file and fall back to a fresh run.
			rc = nil
			s.reclaimCheckpoint(key)
		} else {
			s.metrics.checkpointsResumed.Add(1)
		}
	}
	if rc == nil {
		if rc, err = hwgc.StartCollectRequest(req); err != nil {
			return nil, err
		}
	}

	for {
		done, err := rc.StepCycles(s.opts.CheckpointCycles)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		snap, err := rc.Snapshot()
		if err != nil {
			return nil, err
		}
		if err := snapshot.WriteFile(path, snapshot.Checkpoint{Cycle: rc.Cycle(), Request: reqJSON, Snap: snap}); err != nil {
			return nil, fmt.Errorf("server: saving checkpoint: %w", err)
		}
		s.metrics.checkpointsSaved.Add(1)
		if s.checkpointHook != nil {
			s.checkpointHook(key)
		}
		if s.isDraining() {
			s.metrics.jobsPreempted.Add(1)
			return nil, ErrPreempted
		}
	}

	resp, err := rc.Response()
	if err != nil {
		return nil, err
	}
	s.metrics.ObserveCollect(resp)
	var b bytes.Buffer
	if err := resp.Encode(&b); err != nil {
		return nil, err
	}
	if err := snapshot.Remove(path); err != nil {
		return nil, fmt.Errorf("server: removing checkpoint: %w", err)
	}
	return b.Bytes(), nil
}

// recoverCheckpoints scans the checkpoint directory, garbage-collects what
// cannot be resumed (crash-orphaned temp files, unreadable checkpoints,
// checkpoints filed under another request's key), and enqueues one
// background job per healthy orphaned checkpoint, so work preempted by the
// previous process finishes (and lands in the cache) without waiting for
// the client to retry. A full queue is not an error — the remaining
// checkpoints are still picked up on demand when their requests come back.
func (s *Server) recoverCheckpoints() {
	keys, temps, err := snapshot.Scan(s.opts.CheckpointDir)
	s.metrics.checkpointsReclaimed.Add(int64(temps))
	if err != nil {
		return
	}
	for _, key := range keys {
		req, _, ok := s.loadCheckpoint(key)
		if !ok {
			continue
		}
		j := newJob(context.Background(), key, "collect", func() ([]byte, error) { return s.runCheckpointed(req) })
		if s.queue.TryPush(j) == nil {
			s.metrics.recoveriesEnqueued.Add(1)
		}
	}
}
