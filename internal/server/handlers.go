package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hwgc"
	"hwgc/internal/httpjson"
	"hwgc/internal/plan"
	"hwgc/internal/prom"
)

// maxBodyBytes bounds request bodies; inline plans are the only large
// payloads and 8 MiB of JSON is already a ~100k-object graph.
const maxBodyBytes = 8 << 20

// statusRecorder captures the final status code for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so instrumented handlers can stream
// (the SSE endpoint asserts http.Flusher on its ResponseWriter).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint with request/status counting and, when
// observeLatency is set, service-latency observation.
func (s *Server) instrument(path string, observeLatency bool, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.requests.Inc(request{path, rec.code})
		if observeLatency {
			s.metrics.lat.Observe(time.Since(start))
		}
	}
}

// decodeJSON strictly decodes the request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := plan.DecodeStrict(r.Body, v); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// retryAfterSeconds converts the configured backpressure hint to the
// integral seconds value of a Retry-After header, rounding up and clamping
// to a minimum of 1: a sub-second hint must never be emitted as "0", which
// clients read as "retry immediately" — the opposite of backpressure.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// execute runs one canonicalized job through the shared serving path:
// cache lookup first (the zero-cost fast path — a hit never touches the
// queue), then bounded admission with backpressure, then waiting under the
// per-request deadline. It is the common core of the single-request
// endpoints and the /v1/batch items.
func (s *Server) execute(ctx context.Context, key, kind string, run func() ([]byte, error)) (body []byte, cached bool, err error) {
	if body, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return body, true, nil
	}
	s.metrics.cacheMisses.Add(1)

	jctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	job := newJob(jctx, key, kind, run)
	body, err = s.submit(jctx, job)
	return body, false, err
}

// executeStatus maps an execute error to the per-item/request HTTP status
// and message, bumping the matching stall counters.
func (s *Server) executeStatus(kind string, err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.queueFull.Add(1)
		return http.StatusTooManyRequests, fmt.Sprintf("job queue full (depth %d); retry later", s.queue.Cap())
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, "server is shutting down"
	case errors.Is(err, ErrPreempted):
		return http.StatusServiceUnavailable, "job checkpointed and preempted by shutdown; retry after restart"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, fmt.Sprintf("request deadline (%s) exceeded while %s", s.opts.Timeout, kind)
	default:
		return http.StatusInternalServerError, fmt.Sprintf("%s failed: %v", kind, err)
	}
}

// serveJob is the HTTP wrapper of execute for the two single-request POST
// endpoints.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, key, kind string, run func() ([]byte, error)) {
	body, cached, err := s.execute(r.Context(), key, kind, run)
	if err == nil {
		state := "MISS"
		if cached {
			state = "HIT"
		}
		writeResult(w, key, state, body)
		return
	}
	code, msg := s.executeStatus(kind, err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
	}
	httpjson.Error(w, code, "%s", msg)
}

func writeResult(w http.ResponseWriter, key, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("X-Cache-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func (s *Server) handleCollect(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/collect", true, func(w http.ResponseWriter, r *http.Request) {
		if !httpjson.Method(w, r, http.MethodPost) {
			return
		}
		var req hwgc.CollectRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		key, err := req.Key() // canonicalizes in place
		if err != nil {
			httpjson.Error(w, http.StatusBadRequest, "invalid request: %v", err)
			return
		}
		if s.opts.MaxScale > 0 && req.Scale > s.opts.MaxScale {
			httpjson.Error(w, http.StatusBadRequest, "scale %d exceeds server limit %d", req.Scale, s.opts.MaxScale)
			return
		}
		s.serveJob(w, r, key, "collect", func() ([]byte, error) { return s.runCollect(req) })
	})(w, r)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/sweep", true, func(w http.ResponseWriter, r *http.Request) {
		if !httpjson.Method(w, r, http.MethodPost) {
			return
		}
		var req hwgc.SweepRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		key, err := req.Key() // canonicalizes in place
		if err != nil {
			httpjson.Error(w, http.StatusBadRequest, "invalid request: %v", err)
			return
		}
		if s.opts.MaxScale > 0 && req.Scale > s.opts.MaxScale {
			httpjson.Error(w, http.StatusBadRequest, "scale %d exceeds server limit %d", req.Scale, s.opts.MaxScale)
			return
		}
		s.serveJob(w, r, key, "sweep", func() ([]byte, error) { return s.runSweep(req) })
	})(w, r)
}

// workloadsBody is the GET /v1/workloads response.
type workloadsBody struct {
	Workloads  []string
	Baselines  []string
	CoreRange  [2]int
	PaperCores []int
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/workloads", false, func(w http.ResponseWriter, r *http.Request) {
		if !httpjson.Method(w, r, http.MethodGet) {
			return
		}
		httpjson.Write(w, http.StatusOK, workloadsBody{
			Workloads:  hwgc.Workloads(),
			Baselines:  hwgc.Baselines(),
			CoreRange:  [2]int{1, 64},
			PaperCores: hwgc.PaperCoreCounts,
		})
	})(w, r)
}

// healthBody is the GET /healthz response.
type healthBody struct {
	Status     string
	Workers    int
	QueueDepth int
	QueueCap   int
	CacheLen   int
	// JobsQueued is the async job backlog across all classes (0 when the
	// job tier is disabled).
	JobsQueued int
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.instrument("/healthz", false, func(w http.ResponseWriter, r *http.Request) {
		body := healthBody{
			Status:     "ok",
			Workers:    s.opts.Workers,
			QueueDepth: s.queue.Depth(),
			QueueCap:   s.queue.Cap(),
			CacheLen:   s.cache.Len(),
		}
		if s.jobs != nil {
			body.JobsQueued = s.jobs.Backlog()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})(w, r)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.instrument("/metrics", false, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = prom.Write(w, &s.metrics.set)
		if s.jobs != nil {
			_ = s.jobs.WriteMetrics(w)
			_ = s.sweeps.WriteMetrics(w)
		}
	})(w, r)
}
