package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"hwgc"
	"hwgc/internal/httpjson"
)

// maxBatchBodyBytes matches the backend /v1/batch body bound.
const maxBatchBodyBytes = 16 << 20

// handleBatch serves POST /v1/batch on the fleet: scatter-gather. Every
// item is canonicalized locally, routed to its ring owner (so the item
// still hits the cache that already holds its result), executed via the
// per-item single-request endpoint under the full retry/failover policy,
// and gathered into the same BatchResponse encoding one gcserved produces
// — per-item partial failures, never a hung batch.
func (f *Fleet) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !httpjson.Method(w, r, http.MethodPost) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	req, err := hwgc.DecodeBatchRequest(r.Body)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	resp := f.runBatch(r.Context(), req)
	code := http.StatusOK
	if resp.Failed > 0 {
		code = http.StatusMultiStatus
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = resp.Encode(w)
}

// runBatch scatters the items across the fleet and gathers per-item
// results in request order. Concurrency is bounded per backend (each
// item's route acquires its primary owner's semaphore before sending), so
// a large batch cannot monopolize any single backend's admission queue.
func (f *Fleet) runBatch(ctx context.Context, req *hwgc.BatchRequest) *hwgc.BatchResponse {
	resp := &hwgc.BatchResponse{Items: make([]hwgc.BatchItemResult, len(req.Items))}
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Items[i] = f.runBatchItem(ctx, i, &req.Items[i])
		}(i)
	}
	wg.Wait()
	resp.Tally()
	f.metrics.batchRequests.Add(1)
	f.metrics.batchItems.Add(int64(len(resp.Items)))
	f.metrics.batchFailed.Add(int64(resp.Failed))
	return resp
}

func (f *Fleet) runBatchItem(ctx context.Context, i int, it *hwgc.BatchItem) hwgc.BatchItemResult {
	path, key, body, err := it.Prep()
	if err != nil {
		return hwgc.BatchItemResult{Index: i, Status: http.StatusBadRequest, Error: err.Error()}
	}

	// Bounded per-backend concurrency: the semaphore of the item's primary
	// owner gates the item, whichever replica ends up serving it.
	owner := f.primaryFor(key)
	if owner == nil {
		return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusServiceUnavailable,
			Error: "no backend for key"}
	}
	select {
	case owner.sem <- struct{}{}:
		defer func() { <-owner.sem }()
	case <-ctx.Done():
		return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusGatewayTimeout,
			Error: fmt.Sprintf("batch deadline exceeded while waiting for backend slot: %v", ctx.Err())}
	}

	ictx, cancel := context.WithTimeout(ctx, f.opts.Timeout)
	defer cancel()
	res, err := f.do(ictx, http.MethodPost, path, key, body)
	switch {
	case err == nil && res.status == http.StatusOK:
		return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusOK, Body: res.body}
	case err == nil || res.status != 0:
		// An authoritative non-200 (400, or a surfaced 429/5xx after
		// exhausting retries): report the backend's own status.
		return hwgc.BatchItemResult{Index: i, Key: key, Status: res.status,
			Error: itemError(res)}
	case errors.Is(err, ErrNoBackends):
		return hwgc.BatchItemResult{Index: i, Key: key, Status: http.StatusServiceUnavailable,
			Error: err.Error()}
	default:
		status := http.StatusBadGateway
		if ictx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		return hwgc.BatchItemResult{Index: i, Key: key, Status: status, Error: err.Error()}
	}
}

// itemError condenses a failed exchange into the per-item Error string.
func itemError(res sendResult) string {
	if res.err != nil {
		return res.err.Error()
	}
	return fmt.Sprintf("backend replied %d", res.status)
}

// primaryFor returns the live backend that owns key on the ring.
func (f *Fleet) primaryFor(key string) *Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.backends[f.ring.Owner(key)]
}
