package sweep

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hwgc/internal/stats"
)

// Metrics is the sweep subsystem's counter set, written in Prometheus text
// exposition format as part of the /metrics scrape (gcserved and gcfleet
// each append their coordinator's set).
type Metrics struct {
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

	mu      sync.Mutex
	latency stats.Hist // submit-to-finish sweep latency
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// ObserveSweep records one sweep's submit-to-finish latency.
func (m *Metrics) ObserveSweep(d time.Duration) {
	m.mu.Lock()
	m.latency.Observe(d)
	m.mu.Unlock()
}

// WritePrometheus appends every gcsweep_* series to w.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	latency := m.latency
	m.mu.Unlock()

	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
		b = append(b, '\n')
	}
	add("# HELP gcsweep_sweeps_active Sweeps currently tracking outstanding points.")
	add("# TYPE gcsweep_sweeps_active gauge")
	add("gcsweep_sweeps_active %d", m.sweepsActive.Load())
	add("# HELP gcsweep_sweeps_submitted_total Sweeps accepted with a new ID.")
	add("# TYPE gcsweep_sweeps_submitted_total counter")
	add("gcsweep_sweeps_submitted_total %d", m.sweepsSubmitted.Load())
	add("# HELP gcsweep_sweeps_deduped_total Sweep submissions coalesced onto an existing sweep by content key.")
	add("# TYPE gcsweep_sweeps_deduped_total counter")
	add("gcsweep_sweeps_deduped_total %d", m.sweepsDeduped.Load())
	add("# HELP gcsweep_sweeps_completed_total Sweeps that finished with every point terminal.")
	add("# TYPE gcsweep_sweeps_completed_total counter")
	add("gcsweep_sweeps_completed_total %d", m.sweepsCompleted.Load())
	add("# HELP gcsweep_sweeps_cancelled_total Sweeps cancelled by DELETE.")
	add("# TYPE gcsweep_sweeps_cancelled_total counter")
	add("gcsweep_sweeps_cancelled_total %d", m.sweepsCancelled.Load())
	add("# HELP gcsweep_points_planned_total Points expanded from accepted sweep spaces.")
	add("# TYPE gcsweep_points_planned_total counter")
	add("gcsweep_points_planned_total %d", m.pointsPlanned.Load())
	add("# HELP gcsweep_points_deduped_total Points satisfied from cached or already-submitted results, without a new execution.")
	add("# TYPE gcsweep_points_deduped_total counter")
	add("gcsweep_points_deduped_total %d", m.pointsDeduped.Load())
	add("# HELP gcsweep_points_completed_total Points that reached a result.")
	add("# TYPE gcsweep_points_completed_total counter")
	add("gcsweep_points_completed_total %d", m.pointsCompleted.Load())
	add("# HELP gcsweep_points_failed_total Points whose execution failed.")
	add("# TYPE gcsweep_points_failed_total counter")
	add("gcsweep_points_failed_total %d", m.pointsFailed.Load())
	add("# HELP gcsweep_points_cancelled_total Points cancelled before completing.")
	add("# TYPE gcsweep_points_cancelled_total counter")
	add("gcsweep_points_cancelled_total %d", m.pointsCancelled.Load())
	add("# HELP gcsweep_frontier_updates_total Frontier recomputations that changed the ranking.")
	add("# TYPE gcsweep_frontier_updates_total counter")
	add("gcsweep_frontier_updates_total %d", m.frontierUpdates.Load())
	add("# HELP gcsweep_sweep_seconds Submit-to-finish sweep latency (upper-bound quantile estimates).")
	add("# TYPE gcsweep_sweep_seconds summary")
	add("gcsweep_sweep_seconds{quantile=\"0.5\"} %g", latency.Quantile(0.50))
	add("gcsweep_sweep_seconds{quantile=\"0.99\"} %g", latency.Quantile(0.99))
	add("gcsweep_sweep_seconds_sum %g", latency.Sum().Seconds())
	add("gcsweep_sweep_seconds_count %d", latency.Count())
	_, err := w.Write(b)
	return err
}
