package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"hwgc"
	"hwgc/internal/prom"
)

// Metrics is the server's counter set, exposed on /metrics in Prometheus
// text exposition format. In the spirit of the paper's stall accounting —
// every cycle a core cannot make progress is attributed to a cause — every
// request the server cannot serve immediately is attributed to one: queue
// full (rejections), queue wait + service time (latency summary), or
// deadline expiry (timeouts).
type Metrics struct {
	set prom.Set

	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	queueFull    atomic.Int64
	timeouts     atomic.Int64
	jobsStarted  atomic.Int64
	jobsDone     atomic.Int64
	jobsSkipped  atomic.Int64 // jobs whose context expired before a worker picked them up
	inflightJobs atomic.Int64
	batchItems   atomic.Int64 // batch items executed (any outcome)
	batchFailed  atomic.Int64 // batch items that did not end 200

	checkpointsSaved     atomic.Int64 // simulation snapshots persisted to disk
	checkpointsResumed   atomic.Int64 // jobs resumed from an on-disk checkpoint
	jobsPreempted        atomic.Int64 // jobs stopped at a checkpoint for shutdown
	recoveriesEnqueued   atomic.Int64 // orphaned checkpoints enqueued at startup
	checkpointsReclaimed atomic.Int64 // unreadable/stale checkpoint files garbage-collected

	// Concurrent-collection scenario counters, aggregated from every
	// collect response whose config ran the built-in mutator.
	barrierInvocations atomic.Int64
	barrierCycles      atomic.Int64
	floatingWords      atomic.Int64

	// Memory-hierarchy counters, aggregated from every collect response
	// whose config enabled the NUMA or cache model.
	numaLocal     atomic.Int64
	numaRemote    atomic.Int64
	numaConflicts atomic.Int64
	cacheL1Hits   atomic.Int64
	cacheL2Hits   atomic.Int64
	cacheMissesGC atomic.Int64 // L2 misses (requests that went to DRAM)
	cacheMSHRFull atomic.Int64

	requests prom.CounterVec[request] // by path and HTTP status code
	concRuns prom.CounterVec[string]  // concurrent collections, by barrier mode
	numaRuns prom.CounterVec[string]  // NUMA collections, by tospace placement
	lat      prom.Summary
}

// request keys the request counters; the path and status families each
// sum over the other label.
type request struct {
	path string
	code int
}

// newMetrics returns an empty counter set whose scrape samples the live
// queue and cache.
func newMetrics(q *Queue, c *Cache) *Metrics {
	m := &Metrics{}
	start := time.Now()
	s := &m.set
	s.Labelled("gcserved_requests_total", "HTTP requests received, by path.", "counter", []string{"path"}, func(emit prom.Emit) {
		m.requests.Each(func(k request, n int64) { emit(n, k.path) })
	})
	s.Labelled("gcserved_responses_total", "HTTP responses sent, by status code.", "counter", []string{"code"}, func(emit prom.Emit) {
		m.requests.Each(func(k request, n int64) { emit(n, strconv.Itoa(k.code)) })
	})
	s.Counter("gcserved_cache_hits_total", "Result-cache hits (fast path, no simulation run).", &m.cacheHits)
	s.Counter("gcserved_cache_misses_total", "Result-cache misses.", &m.cacheMisses)
	s.GaugeFunc("gcserved_cache_entries", "Cached responses currently held.", func() int64 { return int64(c.Len()) })
	s.GaugeFunc("gcserved_cache_bytes", "Bytes of cached response bodies currently held.", c.Bytes)
	s.GaugeFunc("gcserved_queue_depth", "Jobs waiting in the bounded queue.", func() int64 { return int64(q.Depth()) })
	s.GaugeFunc("gcserved_queue_capacity", "Capacity of the bounded job queue.", func() int64 { return int64(q.Cap()) })
	s.Counter("gcserved_queue_full_total", "Requests rejected with 429 because the queue was full.", &m.queueFull)
	s.Counter("gcserved_timeouts_total", "Requests that hit their deadline before a result was ready.", &m.timeouts)
	s.Gauge("gcserved_jobs_inflight", "Jobs currently executing on the worker pool.", &m.inflightJobs)
	s.Counter("gcserved_jobs_started_total", "Jobs a worker began executing.", &m.jobsStarted)
	s.Counter("gcserved_jobs_done_total", "Jobs that finished executing.", &m.jobsDone)
	s.Counter("gcserved_jobs_skipped_total", "Queued jobs skipped because their deadline expired first.", &m.jobsSkipped)
	s.Counter("gcserved_batch_items_total", "Batch items executed via /v1/batch.", &m.batchItems)
	s.Counter("gcserved_batch_item_failures_total", "Batch items that did not complete with status 200.", &m.batchFailed)
	s.Counter("gcserved_checkpoints_saved_total", "Simulation snapshots persisted to the checkpoint directory.", &m.checkpointsSaved)
	s.Counter("gcserved_checkpoints_resumed_total", "Collect jobs resumed from an on-disk checkpoint.", &m.checkpointsResumed)
	s.Counter("gcserved_jobs_preempted_total", "Collect jobs checkpointed and stopped because the server was draining.", &m.jobsPreempted)
	s.Counter("gcserved_recoveries_enqueued_total", "Orphaned checkpoints enqueued for background completion at startup.", &m.recoveriesEnqueued)
	s.Counter("gcserved_checkpoint_files_reclaimed_total", "Unreadable, stale or leftover checkpoint files deleted by the startup and resume sweeps.", &m.checkpointsReclaimed)
	s.Labelled("gcserved_concurrent_collections_total", "Collect responses produced with the built-in concurrent mutator, by write-barrier mode.", "counter", []string{"barrier"}, func(emit prom.Emit) {
		m.concRuns.Each(func(mode string, n int64) { emit(n, mode) })
	})
	s.Counter("gcserved_barrier_invocations_total", "Write-barrier invocations across all served concurrent collections.", &m.barrierInvocations)
	s.Counter("gcserved_barrier_cycles_total", "Mutator cycles spent inside the write barrier across all served concurrent collections.", &m.barrierCycles)
	s.Counter("gcserved_floating_garbage_words_total", "Words of floating garbage retained by barrier shading across all served concurrent collections.", &m.floatingWords)
	s.Labelled("gcserved_numa_collections_total", "Collect responses produced with the NUMA model enabled, by tospace placement.", "counter", []string{"placement"}, func(emit prom.Emit) {
		m.numaRuns.Each(func(placement string, n int64) { emit(n, placement) })
	})
	s.Counter("gcserved_numa_local_accesses_total", "DRAM acceptances served by the requesting core's own domain across all served NUMA collections.", &m.numaLocal)
	s.Counter("gcserved_numa_remote_accesses_total", "DRAM acceptances that crossed a domain boundary across all served NUMA collections.", &m.numaRemote)
	s.Counter("gcserved_numa_domain_conflicts_total", "Acceptances deferred by an exhausted per-domain budget across all served NUMA collections.", &m.numaConflicts)
	s.Counter("gcserved_gc_cache_l1_hits_total", "GC-side L1 hits across all served collections with the cache model enabled.", &m.cacheL1Hits)
	s.Counter("gcserved_gc_cache_l2_hits_total", "GC-side shared-L2 hits across all served collections with the cache model enabled.", &m.cacheL2Hits)
	s.Counter("gcserved_gc_cache_misses_total", "GC-side loads that missed both levels and went to DRAM across all served collections with the cache model enabled.", &m.cacheMissesGC)
	s.Counter("gcserved_gc_cache_mshr_full_stalls_total", "Load issues rejected because every MSHR was busy across all served collections with the cache model enabled.", &m.cacheMSHRFull)
	s.Summary("gcserved_request_seconds", "Service latency of job endpoints (upper-bound quantile estimates).", &m.lat, 0.5, 0.95, 0.99)
	s.GaugeFloat("gcserved_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(start).Seconds() })
	return m
}

// ObserveCollect aggregates the concurrent-collection and memory-hierarchy
// counters of one completed collect response. Responses whose config ran
// neither the mutator nor a hierarchy model are a no-op, as is a nil
// receiver (tests that stub the runner).
func (m *Metrics) ObserveCollect(resp *hwgc.CollectResponse) {
	if m == nil || resp == nil {
		return
	}
	st := &resp.Result.Stats
	if ms := st.Mutator; ms != nil {
		mode := "none"
		if bm := st.Config.BarrierMode; bm != hwgc.BarrierNone {
			mode = string(bm)
		}
		m.concRuns.Inc(mode)
		m.barrierInvocations.Add(ms.BarrierInvocations)
		m.barrierCycles.Add(ms.BarrierCycles)
		m.floatingWords.Add(ms.FloatingWords)
	}
	if st.Config.NUMADomains > 0 {
		placement := "naive"
		if st.Config.NUMAPlacement == hwgc.PlacementLocal {
			placement = "local"
		}
		m.numaRuns.Inc(placement)
		m.numaLocal.Add(st.Mem.LocalAccesses)
		m.numaRemote.Add(st.Mem.RemoteAccesses)
		m.numaConflicts.Add(st.Mem.DomainConflicts)
	}
	if st.Config.L1Sets > 0 {
		m.cacheL1Hits.Add(st.Mem.L1Hits)
		m.cacheL2Hits.Add(st.Mem.L2Hits)
		m.cacheMissesGC.Add(st.Mem.L2Misses)
		m.cacheMSHRFull.Add(st.Mem.MSHRFullStalls)
	}
}
