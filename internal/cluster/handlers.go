package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"

	"hwgc"
	"hwgc/internal/httpjson"
	"hwgc/internal/plan"
	"hwgc/internal/prom"
)

// maxBodyBytes bounds single-request bodies, matching the backend limit.
const maxBodyBytes = 8 << 20

// handleCollect and handleSweep proxy the single-request endpoints: the
// fleet decodes strictly (an unknown field is a 400, as on a backend, never
// a silently different content key), canonicalizes locally (so equivalent
// spellings share one key and one owner), routes by content key, and
// forwards the canonical body. The backend reply is passed through
// verbatim — byte-identical to what the owner would serve directly.
func (f *Fleet) handleCollect(w http.ResponseWriter, r *http.Request) {
	f.proxyRequest(w, r, func(body []byte) (string, []byte, error) {
		var req hwgc.CollectRequest
		if err := plan.DecodeStrict(bytes.NewReader(body), &req); err != nil {
			return "", nil, err
		}
		canon, err := req.CanonicalJSON()
		if err != nil {
			return "", nil, err
		}
		return hwgc.KeyBytes(canon), canon, nil
	})
}

func (f *Fleet) handleSweep(w http.ResponseWriter, r *http.Request) {
	f.proxyRequest(w, r, func(body []byte) (string, []byte, error) {
		var req hwgc.SweepRequest
		if err := plan.DecodeStrict(bytes.NewReader(body), &req); err != nil {
			return "", nil, err
		}
		canon, err := req.CanonicalJSON()
		if err != nil {
			return "", nil, err
		}
		return hwgc.KeyBytes(canon), canon, nil
	})
}

// proxyRequest is the shared single-request proxy path.
func (f *Fleet) proxyRequest(w http.ResponseWriter, r *http.Request, canonicalize func([]byte) (string, []byte, error)) {
	if !httpjson.Method(w, r, http.MethodPost) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw, err := readAll(r)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	key, canon, err := canonicalize(raw)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	res, err := f.do(ctx, http.MethodPost, r.URL.Path, key, canon)
	f.finishProxy(w, res, err)
}

// finishProxy maps a routing outcome onto the client response.
func (f *Fleet) finishProxy(w http.ResponseWriter, res sendResult, err error) {
	switch {
	case err == nil:
		copyHeader(w, res.header, "Content-Type")
		copyHeader(w, res.header, "X-Cache")
		copyHeader(w, res.header, "X-Cache-Key")
		copyHeader(w, res.header, "Retry-After")
		if res.backend != nil {
			w.Header().Set("X-Fleet-Backend", res.backend.id)
		}
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	case errors.Is(err, ErrNoBackends):
		f.metrics.exhausted.Add(1)
		httpjson.Error(w, http.StatusServiceUnavailable, "no healthy backend for this key (all breakers open)")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		f.metrics.exhausted.Add(1)
		httpjson.Error(w, http.StatusGatewayTimeout, "fleet deadline (%s) exceeded", f.opts.Timeout)
	case errors.Is(err, ErrExhausted) && res.status != 0:
		// Out of attempts but we do hold a last reply (a 429 or 5xx):
		// surface it so the client sees the backend's own signal.
		f.metrics.exhausted.Add(1)
		copyHeader(w, res.header, "Content-Type")
		copyHeader(w, res.header, "Retry-After")
		if res.backend != nil {
			w.Header().Set("X-Fleet-Backend", res.backend.id)
		}
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	default:
		f.metrics.exhausted.Add(1)
		httpjson.Error(w, http.StatusBadGateway, "all backends failed: %v", err)
	}
}

func copyHeader(w http.ResponseWriter, from http.Header, name string) {
	if from == nil {
		return
	}
	if v := from.Get(name); v != "" {
		w.Header().Set(name, v)
	}
}

func readAll(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(r.Body)
}

// handleWorkloads forwards GET /v1/workloads to a healthy backend (the
// listing is identical on every backend).
func (f *Fleet) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if !httpjson.Method(w, r, http.MethodGet) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.opts.Timeout)
	defer cancel()
	res, err := f.do(ctx, http.MethodGet, "/v1/workloads", "workloads", nil)
	f.finishProxy(w, res, err)
}

// fleetHealth is the GET /healthz response: the coordinator is "ok" while
// at least one backend is admissible, "degraded" otherwise.
type fleetHealth struct {
	Status   string
	Backends []backendHealth
}

type backendHealth struct {
	ID      string
	URL     string
	Breaker string
	Up      bool
	Error   string `json:",omitempty"`
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := fleetHealth{Status: "degraded"}
	for _, b := range f.Backends() {
		state := b.breaker.State()
		up := b.healthy.Load()
		if state != BreakerOpen {
			h.Status = "ok"
		}
		errStr, _ := b.healthErr.Load().(string)
		h.Backends = append(h.Backends, backendHealth{
			ID: b.id, URL: b.baseURL, Breaker: state.String(), Up: up, Error: errStr,
		})
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	httpjson.Write(w, code, h)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = prom.Write(w, &f.metrics.set, f.emetrics.Set())
	_ = f.sweeps.WriteMetrics(w)
}
