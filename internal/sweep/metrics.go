package sweep

import (
	"sync/atomic"

	"hwgc/internal/prom"
)

// Metrics is the sweep subsystem's counter set, written in Prometheus text
// exposition format as part of the /metrics scrape (gcserved and gcfleet
// each append their coordinator's set).
type Metrics struct {
	set prom.Set

	sweepsSubmitted atomic.Int64 // sweeps accepted with a new ID
	sweepsDeduped   atomic.Int64 // submissions coalesced onto an existing sweep
	sweepsCompleted atomic.Int64
	sweepsCancelled atomic.Int64
	sweepsActive    atomic.Int64 // gauge

	pointsPlanned   atomic.Int64 // points expanded from accepted spaces
	pointsDeduped   atomic.Int64 // points satisfied without a new job execution
	pointsCompleted atomic.Int64
	pointsFailed    atomic.Int64
	pointsCancelled atomic.Int64

	frontierUpdates atomic.Int64 // frontier recomputations that changed the ranking

	latency prom.Summary // submit-to-finish sweep latency
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	s := &m.set
	s.Gauge("gcsweep_sweeps_active", "Sweeps currently tracking outstanding points.", &m.sweepsActive)
	s.Counter("gcsweep_sweeps_submitted_total", "Sweeps accepted with a new ID.", &m.sweepsSubmitted)
	s.Counter("gcsweep_sweeps_deduped_total", "Sweep submissions coalesced onto an existing sweep by content key.", &m.sweepsDeduped)
	s.Counter("gcsweep_sweeps_completed_total", "Sweeps that finished with every point terminal.", &m.sweepsCompleted)
	s.Counter("gcsweep_sweeps_cancelled_total", "Sweeps cancelled by DELETE.", &m.sweepsCancelled)
	s.Counter("gcsweep_points_planned_total", "Points expanded from accepted sweep spaces.", &m.pointsPlanned)
	s.Counter("gcsweep_points_deduped_total", "Points satisfied from cached or already-submitted results, without a new execution.", &m.pointsDeduped)
	s.Counter("gcsweep_points_completed_total", "Points that reached a result.", &m.pointsCompleted)
	s.Counter("gcsweep_points_failed_total", "Points whose execution failed.", &m.pointsFailed)
	s.Counter("gcsweep_points_cancelled_total", "Points cancelled before completing.", &m.pointsCancelled)
	s.Counter("gcsweep_frontier_updates_total", "Frontier recomputations that changed the ranking.", &m.frontierUpdates)
	s.Summary("gcsweep_sweep_seconds", "Submit-to-finish sweep latency (upper-bound quantile estimates).", &m.latency, 0.5, 0.99)
	return m
}
