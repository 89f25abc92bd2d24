package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"hwgc"
	"hwgc/internal/httpjson"
	"hwgc/internal/plan"
)

// jobSubmit mirrors gcserved's POST /v1/jobs body: exactly one of Collect
// or Sweep, plus an optional priority class.
type jobSubmit struct {
	Collect *hwgc.CollectRequest `json:",omitempty"`
	Sweep   *hwgc.SweepRequest   `json:",omitempty"`
	Class   string               `json:",omitempty"`
}

// handleJobs proxies POST /v1/jobs. The fleet canonicalizes the inner
// request locally and routes by its content key — which is exactly the job
// ID the backend will mint — so a job always lands on the same backend that
// owns the equivalent synchronous request, and the job's result lands in
// the cache that sync traffic for this key already routes to. Submission is
// idempotent on the backend (dedup by content key), which is what makes the
// fleet's retry/failover policy safe for this POST.
func (f *Fleet) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !httpjson.Method(w, r, http.MethodPost) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw, err := readAll(r)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	var sub jobSubmit
	if err := plan.DecodeStrict(bytes.NewReader(raw), &sub); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	if (sub.Collect == nil) == (sub.Sweep == nil) {
		httpjson.Error(w, http.StatusBadRequest, "exactly one of Collect or Sweep must be set")
		return
	}
	var canon []byte
	if sub.Collect != nil {
		if _, err = sub.Collect.Key(); err == nil { // canonicalizes in place
			canon, err = sub.Collect.CanonicalJSON()
		}
	} else {
		if _, err = sub.Sweep.Key(); err == nil { // canonicalizes in place
			canon, err = sub.Sweep.CanonicalJSON()
		}
	}
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	key := hwgc.KeyBytes(canon)

	// Rebuild the body around the canonical inner request so every
	// equivalent spelling forwards identical bytes (the backend then mints
	// the identical job ID). Class validation is left to the backend — its
	// 400 is authoritative and passes through.
	fwd := struct {
		Collect json.RawMessage `json:",omitempty"`
		Sweep   json.RawMessage `json:",omitempty"`
		Class   string          `json:",omitempty"`
	}{Class: sub.Class}
	if sub.Collect != nil {
		fwd.Collect = canon
	} else {
		fwd.Sweep = canon
	}
	body, err := json.Marshal(fwd)
	if err != nil {
		httpjson.Error(w, http.StatusInternalServerError, "encoding request: %v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	res, err := f.do(ctx, http.MethodPost, "/v1/jobs", key, body)
	if err == nil {
		copyHeader(w, res.header, "Location")
		if res.status < http.StatusMultipleChoices {
			// Remember the accepted submission so a rebalance pass can
			// resubmit it from scratch if its owner dies before the job can
			// be checkpoint-exported (dead-owner rescue).
			f.registry.Record(key, body)
		}
	}
	f.finishProxy(w, res, err)
}

// handleJobByID proxies /v1/jobs/{id}, /v1/jobs/{id}/result and
// /v1/jobs/{id}/events. The job ID is itself the content key the job was
// submitted under, so hashing it routes every by-id request to the same
// backend that accepted the submission (with the usual replica failover —
// a restarted owner replays its WAL and still knows the job).
func (f *Fleet) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, subPath, _ := strings.Cut(rest, "/")
	if id == "" || strings.Contains(subPath, "/") {
		httpjson.Error(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
		return
	}
	switch subPath {
	case "":
		if r.Method != http.MethodGet && r.Method != http.MethodDelete {
			w.Header().Set("Allow", "GET, DELETE")
			httpjson.Error(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", r.URL.Path)
			return
		}
		f.proxyJobPath(w, r, id, r.Method)
	case "result":
		if !httpjson.Method(w, r, http.MethodGet) {
			return
		}
		f.proxyJobPath(w, r, id, http.MethodGet)
	case "events":
		if !httpjson.Method(w, r, http.MethodGet) {
			return
		}
		f.streamJobEvents(w, r, id)
	default:
		httpjson.Error(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
	}
}

// proxyJobPath forwards a bodyless by-id request under the standard
// retry/failover policy. DELETE is safe to retry: cancelling an
// already-terminal job is an authoritative 409, not a duplicate effect.
// A successful DELETE also drops the job from the rescue registry.
func (f *Fleet) proxyJobPath(w http.ResponseWriter, r *http.Request, id, method string) {
	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	res, err := f.do(ctx, method, r.URL.Path, id, nil)
	if err == nil && method == http.MethodDelete && res.status == http.StatusOK {
		f.registry.Forget(id)
	}
	f.finishProxy(w, res, err)
}

// streamJobEvents proxies the SSE endpoint. The buffered do() path cannot
// carry an unbounded live stream, so this is a single-attempt-per-replica
// pass-through: pick the first admissible replica that answers, then copy
// bytes as they arrive with a flush per chunk. No retries once streaming
// has started — a broken stream surfaces to the client, which reconnects
// (the backend replays the full event history on every subscribe, so a
// reconnect misses nothing).
func (f *Fleet) streamJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpjson.Error(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	replicas := f.replicasFor(id)
	for _, b := range replicas {
		if !b.breaker.Allow() {
			continue
		}
		b.requests.Add(1)
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.baseURL+r.URL.Path, nil)
		if err != nil {
			httpjson.Error(w, http.StatusInternalServerError, "building request: %v", err)
			return
		}
		resp, err := f.client.Do(req)
		if err != nil {
			b.breaker.Record(false)
			b.errors.Add(1)
			f.metrics.backendFailures.Add(1)
			continue
		}
		f.metrics.exchanges.Inc(exchange{b.id, resp.StatusCode})
		if resp.StatusCode >= http.StatusInternalServerError {
			resp.Body.Close()
			b.breaker.Record(false)
			b.errors.Add(1)
			f.metrics.backendFailures.Add(1)
			continue
		}
		b.breaker.Record(true)
		defer resp.Body.Close()
		copyHeader(w, resp.Header, "Content-Type")
		copyHeader(w, resp.Header, "Cache-Control")
		w.Header().Set("X-Fleet-Backend", b.id)
		if resp.StatusCode != http.StatusOK {
			// Authoritative non-stream reply (404, 405): buffered is fine.
			body, _ := io.ReadAll(io.LimitReader(resp.Body, maxProxyBodyBytes))
			w.WriteHeader(resp.StatusCode)
			_, _ = w.Write(body)
			return
		}
		w.WriteHeader(http.StatusOK)
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				fl.Flush()
			}
			if rerr != nil {
				return
			}
		}
	}
	f.metrics.exhausted.Add(1)
	httpjson.Error(w, http.StatusServiceUnavailable, "no admissible backend to stream job events")
}
