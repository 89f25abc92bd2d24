package server

import (
	"net/http"
	"sync"

	"hwgc"
	"hwgc/internal/httpjson"
)

// maxBatchBodyBytes bounds /v1/batch bodies: up to MaxBatchItems inline
// plans at the single-request limit would be excessive, but batches of
// named benchmarks are tiny; 16 MiB comfortably covers mixed batches.
const maxBatchBodyBytes = 16 << 20

// handleBatch serves POST /v1/batch: every item runs through the same
// cache → bounded queue → worker path as the single-request endpoints,
// with per-item outcomes (one bad or backpressured item never fails the
// whole batch). The response is 200 when every item succeeded and 207
// Multi-Status when any item failed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.instrument("/v1/batch", true, func(w http.ResponseWriter, r *http.Request) {
		if !httpjson.Method(w, r, http.MethodPost) {
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
		req, err := hwgc.DecodeBatchRequest(r.Body)
		if err != nil {
			httpjson.Error(w, http.StatusBadRequest, "invalid batch: %v", err)
			return
		}
		resp := s.runBatch(r, req)
		code := http.StatusOK
		if resp.Failed > 0 {
			code = http.StatusMultiStatus
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = resp.Encode(w)
	})(w, r)
}

// runBatch executes every batch item with bounded concurrency (the worker
// pool size — more in-flight submissions than workers only inflates queue
// occupancy for unrelated traffic) and reports outcomes in request order.
func (s *Server) runBatch(r *http.Request, req *hwgc.BatchRequest) *hwgc.BatchResponse {
	resp := &hwgc.BatchResponse{Items: make([]hwgc.BatchItemResult, len(req.Items))}
	sem := make(chan struct{}, s.opts.Workers)
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp.Items[i] = s.runBatchItem(r, i, &req.Items[i])
		}(i)
	}
	wg.Wait()
	resp.Tally()
	s.metrics.batchItems.Add(int64(len(resp.Items)))
	s.metrics.batchFailed.Add(int64(resp.Failed))
	return resp
}

func (s *Server) runBatchItem(r *http.Request, i int, it *hwgc.BatchItem) hwgc.BatchItemResult {
	path, key, _, err := it.Prep()
	if err != nil {
		return hwgc.BatchItemResult{Index: i, Status: http.StatusBadRequest, Error: err.Error()}
	}
	if s.opts.MaxScale > 0 && it.Scale() > s.opts.MaxScale {
		return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusBadRequest,
			Error: "scale exceeds server limit"}
	}
	var (
		kind string
		run  func() ([]byte, error)
	)
	if path == "/v1/collect" {
		kind, run = "collect", func() ([]byte, error) { return s.runCollect(*it.Collect) }
	} else {
		kind, run = "sweep", func() ([]byte, error) { return s.runSweep(*it.Sweep) }
	}
	body, _, err := s.execute(r.Context(), key, kind, run)
	if err != nil {
		code, msg := s.executeStatus(kind, err)
		return hwgc.BatchItemResult{Index: i, Key: key, Status: code, Error: msg}
	}
	return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusOK, Body: body}
}
