package cluster

import (
	"strconv"
	"sync/atomic"
	"time"

	"hwgc/internal/prom"
)

// Metrics is the fleet-level counter set, exposed on /metrics in
// Prometheus text exposition format. It mirrors the backend tier's stall
// accounting one level up: every request the fleet could not serve from
// the key's healthy owner is attributed to a cause — breaker trips,
// failovers, retries, hedges, or exhaustion.
type Metrics struct {
	set prom.Set

	retries         atomic.Int64 // sends after the first for one request
	failovers       atomic.Int64 // sends that left the key's primary owner
	hedges          atomic.Int64 // hedge requests launched
	hedgeWins       atomic.Int64 // hedges that beat the primary
	backendFailures atomic.Int64 // transport errors + 5xx across the fleet
	exhausted       atomic.Int64 // requests that ran out of attempts/backends
	healthProbes    atomic.Int64
	healthFailures  atomic.Int64
	batchRequests   atomic.Int64
	batchItems      atomic.Int64
	batchFailed     atomic.Int64
	backendsAdded   atomic.Int64 // runtime joins via the admin API
	backendsRemoved atomic.Int64 // runtime removals via the admin API

	exchanges prom.CounterVec[exchange] // completed HTTP exchanges with backends
	routes    prom.CounterVec[string]   // backend id -> times chosen as primary owner
	lat       prom.Summary              // merged request latency across backends
}

// exchange keys the exchange counters by backend id and status code.
type exchange struct {
	backend string
	code    int
}

// newMetrics returns an empty fleet counter set whose scrape samples the
// per-backend state of the members backends lists.
func newMetrics(backends func() []*Backend) *Metrics {
	m := &Metrics{}
	start := time.Now()
	s := &m.set
	s.Labelled("gcfleet_requests_total", "HTTP exchanges with backends, by backend and status code.", "counter", []string{"backend", "code"}, func(emit prom.Emit) {
		m.exchanges.Each(func(k exchange, n int64) { emit(n, k.backend, strconv.Itoa(k.code)) })
	})
	s.Labelled("gcfleet_routed_total", "Requests whose primary ring owner was this backend (routing distribution).", "counter", []string{"backend"}, func(emit prom.Emit) {
		m.routes.Each(func(id string, n int64) { emit(n, id) })
	})
	perBackend := func(name, help, typ string, v func(b *Backend) int64) {
		s.Labelled(name, help, typ, []string{"backend"}, func(emit prom.Emit) {
			for _, b := range backends() {
				emit(v(b), b.id)
			}
		})
	}
	perBackend("gcfleet_backend_up", "Last health-probe outcome per backend (1 up, 0 down).", "gauge", func(b *Backend) int64 {
		if b.healthy.Load() {
			return 1
		}
		return 0
	})
	perBackend("gcfleet_breaker_state", "Circuit-breaker state per backend (0 closed, 1 open, 2 half-open).", "gauge", func(b *Backend) int64 { return int64(b.breaker.State()) })
	perBackend("gcfleet_breaker_opens_total", "Times each backend's breaker opened.", "counter", func(b *Backend) int64 { return b.breaker.Opens() })
	perBackend("gcfleet_backend_errors_total", "Transport errors and 5xx replies per backend.", "counter", func(b *Backend) int64 { return b.errors.Load() })
	perBackend("gcfleet_hedged_to_total", "Hedge requests launched against each backend.", "counter", func(b *Backend) int64 { return b.hedges.Load() })
	s.GaugeFunc("gcfleet_backends", "Backends currently in the ring.", func() int64 { return int64(len(backends())) })
	s.Counter("gcfleet_backends_added_total", "Backends joined at runtime via the admin API.", &m.backendsAdded)
	s.Counter("gcfleet_backends_removed_total", "Backends removed at runtime via the admin API.", &m.backendsRemoved)
	s.Counter("gcfleet_retries_total", "Sends after the first for one request (retry policy).", &m.retries)
	s.Counter("gcfleet_failovers_total", "Sends that left the key's primary ring owner.", &m.failovers)
	s.Counter("gcfleet_hedges_total", "Hedge requests launched after the latency-percentile delay.", &m.hedges)
	s.Counter("gcfleet_hedge_wins_total", "Hedges that answered before the primary attempt.", &m.hedgeWins)
	s.Counter("gcfleet_backend_failures_total", "Transport errors and 5xx replies across the fleet.", &m.backendFailures)
	s.Counter("gcfleet_exhausted_total", "Requests that ran out of attempts or admissible backends.", &m.exhausted)
	s.Counter("gcfleet_health_probes_total", "Health probes sent.", &m.healthProbes)
	s.Counter("gcfleet_health_failures_total", "Health probes that failed.", &m.healthFailures)
	s.Counter("gcfleet_batch_requests_total", "/v1/batch requests served.", &m.batchRequests)
	s.Counter("gcfleet_batch_items_total", "Batch items scattered across the fleet.", &m.batchItems)
	s.Counter("gcfleet_batch_item_failures_total", "Batch items that did not complete with status 200.", &m.batchFailed)
	s.Summary("gcfleet_request_seconds", "Backend exchange latency as seen by the fleet (upper-bound quantiles).", &m.lat, 0.5, 0.95, 0.99)
	s.GaugeFloat("gcfleet_uptime_seconds", "Seconds since the fleet coordinator started.", func() float64 { return time.Since(start).Seconds() })
	return m
}
