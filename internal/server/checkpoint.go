package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hwgc"
)

// ErrPreempted reports a collect job that was checkpointed to disk and
// stopped because the server is draining; the client gets 503 and the next
// server process (or the next request for the same key) resumes from the
// checkpoint instead of starting over.
var ErrPreempted = errors.New("server: job preempted by shutdown (checkpointed)")

// ckptMagic frames a checkpoint file: the canonical request JSON (so a
// restarted server knows what it was computing) followed by the machine
// snapshot.
const (
	ckptMagic  = "HWGCCKP1"
	ckptSuffix = ".ckpt"
)

// checkpointStore persists per-request checkpoints under one directory, one
// file per cache key. Writes go through a temp file + rename so a crash
// mid-write leaves either the previous checkpoint or none — never a torn
// file the resume path would have to distrust (the snapshot's CRC framing
// would catch it, but then the work would be lost).
type checkpointStore struct {
	dir string
}

func (c *checkpointStore) path(key string) string {
	return filepath.Join(c.dir, key+ckptSuffix)
}

// save atomically writes the checkpoint for key.
func (c *checkpointStore) save(key string, reqJSON, snap []byte) error {
	buf := make([]byte, 0, len(ckptMagic)+4+len(reqJSON)+len(snap))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(reqJSON)))
	buf = append(buf, reqJSON...)
	buf = append(buf, snap...)
	tmp, err := os.CreateTemp(c.dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// load reads and splits the checkpoint for key; ok is false when none
// exists. A present-but-corrupt file is an error.
func (c *checkpointStore) load(key string) (req hwgc.CollectRequest, snap []byte, ok bool, err error) {
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return req, nil, false, nil
	}
	if err != nil {
		return req, nil, false, err
	}
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return req, nil, false, fmt.Errorf("server: checkpoint %s: bad header", c.path(key))
	}
	n := int(binary.LittleEndian.Uint32(data[len(ckptMagic):]))
	rest := data[len(ckptMagic)+4:]
	if n > len(rest) {
		return req, nil, false, fmt.Errorf("server: checkpoint %s: truncated request", c.path(key))
	}
	if err := json.Unmarshal(rest[:n], &req); err != nil {
		return req, nil, false, fmt.Errorf("server: checkpoint %s: request: %w", c.path(key), err)
	}
	return req, rest[n:], true, nil
}

// remove deletes key's checkpoint; a missing file is not an error (the
// normal case for uncheckpointed jobs).
func (c *checkpointStore) remove(key string) error {
	err := os.Remove(c.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// keys lists the cache keys with a checkpoint on disk.
func (c *checkpointStore) keys() ([]string, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, ckptSuffix) && !strings.HasPrefix(name, ".") {
			out = append(out, strings.TrimSuffix(name, ckptSuffix))
		}
	}
	return out, nil
}

// draining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// runCheckpointed is the collect execution path when checkpointing is
// enabled: it resumes from an on-disk checkpoint if one exists, steps the
// simulation in CheckpointCycles slices, persists a snapshot after each
// slice, and — when the server starts draining — stops at the next slice
// boundary with ErrPreempted, leaving the freshest checkpoint behind. A
// finished job removes its checkpoint and returns the exact bytes the
// uninterrupted path would have produced (the snapshot restore contract
// guarantees bit-identical Stats, so cached and recovered responses agree).
func (s *Server) runCheckpointed(req hwgc.CollectRequest) ([]byte, error) {
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	reqJSON, err := req.CanonicalJSON()
	if err != nil {
		return nil, err
	}

	var rc *hwgc.RequestCollection
	if _, snap, ok, err := s.ckpt.load(key); err == nil && ok {
		if rc, err = hwgc.ResumeCollectRequest(req, snap); err != nil {
			// A stale or corrupt checkpoint must not wedge the key: reclaim
			// the file and fall back to a fresh run.
			rc = nil
			if s.ckpt.remove(key) == nil {
				s.metrics.checkpointsReclaimed.Add(1)
			}
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
		if err := s.ckpt.save(key, reqJSON, snap); err != nil {
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
	if err := s.ckpt.remove(key); err != nil {
		return nil, fmt.Errorf("server: removing checkpoint: %w", err)
	}
	return b.Bytes(), nil
}

// sweepTemps deletes temp files a crash mid-save left behind, returning how
// many were reclaimed.
func (c *checkpointStore) sweepTemps() int {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), ".ckpt-") {
			if os.Remove(filepath.Join(c.dir, e.Name())) == nil {
				n++
			}
		}
	}
	return n
}

// recoverCheckpoints scans the checkpoint directory, garbage-collects what
// cannot be resumed (crash-orphaned temp files, unreadable checkpoints),
// and enqueues one background job per healthy orphaned checkpoint, so work
// preempted by the previous process finishes (and lands in the cache)
// without waiting for the client to retry. A full queue is not an error —
// the remaining checkpoints are still picked up on demand when their
// requests come back.
func (s *Server) recoverCheckpoints() {
	s.metrics.checkpointsReclaimed.Add(int64(s.ckpt.sweepTemps()))
	keys, err := s.ckpt.keys()
	if err != nil {
		return
	}
	for _, key := range keys {
		req, _, ok, err := s.ckpt.load(key)
		if err != nil {
			// Unreadable: it would fail every future resume the same way,
			// so holding on to the file reclaims nothing.
			if s.ckpt.remove(key) == nil {
				s.metrics.checkpointsReclaimed.Add(1)
			}
			continue
		}
		if !ok {
			continue
		}
		j := newJob(context.Background(), key, "collect", func() ([]byte, error) { return s.runCheckpointed(req) })
		if s.queue.TryPush(j) == nil {
			s.metrics.recoveriesEnqueued.Add(1)
		}
	}
}
