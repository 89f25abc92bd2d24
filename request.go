package hwgc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"hwgc/internal/core"
)

// This file defines the canonical request/response encoding shared by the
// gcserved HTTP service (internal/server), the gcload load generator and
// cmd/gcsim's -json mode. Because every simulation is deterministic, a
// canonicalized request identifies its result exactly: the same canonical
// bytes always produce the same response bytes, which is what makes the
// server's content-addressed result cache sound.

// CollectRequest describes one collection to run: either a named benchmark
// (Bench) or an inline custom object-graph plan (Plan), at a given scale,
// seed and coprocessor configuration. The zero values of Scale, Seed and
// Config select the library defaults (scale 1, seed 42, a 1-core
// coprocessor with the calibrated memory model).
type CollectRequest struct {
	Bench  string `json:",omitempty"`
	Plan   *Plan  `json:",omitempty"`
	Scale  int    `json:",omitempty"`
	Seed   int64  `json:",omitempty"`
	Config Config
	Verify bool `json:",omitempty"`
}

// Canonicalize validates r and resolves every defaulted field in place, so
// that two requests meaning the same simulation compare (and serialize)
// identically. Exactly one of Bench and Plan must be set. For plan requests
// Scale and Seed are forced to zero — they do not influence the build.
func (r *CollectRequest) Canonicalize() error {
	switch {
	case r.Bench == "" && r.Plan == nil:
		return fmt.Errorf("hwgc: request needs a benchmark name or a plan")
	case r.Bench != "" && r.Plan != nil:
		return fmt.Errorf("hwgc: request has both a benchmark name and a plan")
	case r.Plan != nil:
		if err := r.Plan.Validate(); err != nil {
			return err
		}
		r.Scale, r.Seed = 0, 0
	default:
		if _, err := Workload(r.Bench); err != nil {
			return err
		}
		if r.Scale < 1 {
			r.Scale = 1
		}
		if r.Seed == 0 {
			r.Seed = core.DefaultSeed
		}
	}
	r.Config = r.Config.WithDefaults()
	return r.Config.Validate()
}

// CanonicalJSON returns the canonical byte encoding of r, canonicalizing it
// in place first. The encoding is deterministic: field order is fixed and
// all defaults are resolved.
func (r *CollectRequest) CanonicalJSON() ([]byte, error) {
	if err := r.Canonicalize(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// KeyBytes returns the content address of a canonical request encoding:
// the hex SHA-256 of the bytes. It is the one key derivation shared by the
// server's result cache and the fleet's consistent-hash router, so both
// tiers agree on which backend owns which cached result.
func KeyBytes(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Key returns the content address of r: the hex SHA-256 of its canonical
// JSON encoding. Requests that mean the same simulation share a key.
func (r *CollectRequest) Key() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return KeyBytes(b), nil
}

// Run canonicalizes r and executes the simulation it describes.
func (r *CollectRequest) Run() (RunResult, error) {
	if err := r.Canonicalize(); err != nil {
		return RunResult{}, err
	}
	resp, err := NewCollectResponse(*r)
	if err != nil {
		return RunResult{}, err
	}
	return resp.Result, nil
}

// SweepRequest describes a core-count sweep of one named benchmark (the
// measurement behind the paper's Figures 5/6 and Table I). An empty Cores
// list selects PaperCoreCounts.
type SweepRequest struct {
	Bench  string
	Cores  []int `json:",omitempty"`
	Scale  int   `json:",omitempty"`
	Seed   int64 `json:",omitempty"`
	Config Config
	Verify bool `json:",omitempty"`
}

// MaxSweepPoints bounds the number of core counts one sweep may request.
const MaxSweepPoints = 64

// Canonicalize validates r and resolves defaulted fields in place.
func (r *SweepRequest) Canonicalize() error {
	if r.Bench == "" {
		return fmt.Errorf("hwgc: sweep request needs a benchmark name")
	}
	if _, err := Workload(r.Bench); err != nil {
		return err
	}
	if len(r.Cores) == 0 {
		r.Cores = append([]int(nil), PaperCoreCounts...)
	}
	if len(r.Cores) > MaxSweepPoints {
		return fmt.Errorf("hwgc: sweep requests %d core counts, max %d", len(r.Cores), MaxSweepPoints)
	}
	if r.Scale < 1 {
		r.Scale = 1
	}
	if r.Seed == 0 {
		r.Seed = core.DefaultSeed
	}
	r.Config = r.Config.WithDefaults()
	if err := r.Config.Validate(); err != nil {
		return err
	}
	for _, n := range r.Cores {
		c := r.Config
		c.Cores = n
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CanonicalJSON returns the canonical byte encoding of r, canonicalizing it
// in place first.
func (r *SweepRequest) CanonicalJSON() ([]byte, error) {
	if err := r.Canonicalize(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// Key returns the content address of r (hex SHA-256 of the canonical JSON).
func (r *SweepRequest) Key() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return KeyBytes(b), nil
}

// Run canonicalizes r and executes the sweep it describes.
func (r *SweepRequest) Run() ([]RunResult, error) {
	if err := r.Canonicalize(); err != nil {
		return nil, err
	}
	return SweepCores(r.Bench, r.Cores, r.Scale, r.Seed, r.Config, r.Verify)
}

// CollectResponse is the result encoding for one collection, produced
// identically by the gcserved service (POST /v1/collect) and by
// cmd/gcsim -json, so scripts and the service speak one format. Key is the
// canonical request hash (the server's cache key); Bench, Scale and Seed
// echo the canonicalized request (Bench is "plan" for plan requests; Scale
// and Seed are omitted for them).
type CollectResponse struct {
	Key    string
	Bench  string
	Scale  int   `json:",omitempty"`
	Seed   int64 `json:",omitempty"`
	Result RunResult
}

// NewCollectResponse runs the (possibly non-canonical) request and wraps
// the result in the shared response encoding.
func NewCollectResponse(req CollectRequest) (*CollectResponse, error) {
	rc, err := StartCollectRequest(req)
	if err != nil {
		return nil, err
	}
	return rc.Response()
}

// Encode writes the response in the service's wire format: indented JSON
// with a trailing newline. The output is deterministic byte for byte.
func (r *CollectResponse) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SweepResponse is the result encoding for one core sweep (POST /v1/sweep).
type SweepResponse struct {
	Key     string
	Bench   string
	Cores   []int
	Scale   int
	Seed    int64
	Results []RunResult
}

// NewSweepResponse runs the (possibly non-canonical) sweep request and
// wraps the results in the shared response encoding.
func NewSweepResponse(req SweepRequest) (*SweepResponse, error) {
	key, err := req.Key() // canonicalizes req in place
	if err != nil {
		return nil, err
	}
	results, err := req.Run()
	if err != nil {
		return nil, err
	}
	return &SweepResponse{Key: key, Bench: req.Bench, Cores: req.Cores, Scale: req.Scale, Seed: req.Seed, Results: results}, nil
}

// Encode writes the response in the service's wire format (indented JSON,
// trailing newline, deterministic byte for byte).
func (r *SweepResponse) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
