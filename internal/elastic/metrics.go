package elastic

import (
	"math"
	"sync/atomic"

	"hwgc/internal/prom"
)

// Metrics is the migration driver's counter set, written as gcelastic_*
// series in gcfleet's /metrics scrape. The accounting mirrors the repo's
// stall discipline: every job displaced by a topology change is
// attributable to a migration (checkpoint shipped), a rescue (resubmitted
// from the registry) or a failure awaiting the next pass.
type Metrics struct {
	set prom.Set

	rebalances         atomic.Int64 // rebalance passes run
	jobsMigrated       atomic.Int64 // jobs moved by checkpoint transfer
	jobsResubmitted    atomic.Int64 // jobs rescued via registry resubmission
	migrationsVerified atomic.Int64 // import receipts matching the export
	migrationsFailed   atomic.Int64 // migrations or rescues that failed a pass
	migrationBytes     atomic.Int64 // envelope bytes shipped

	// keysRemapped holds the float64 bits of the most recent topology
	// change's remapped-key fraction (measured over a deterministic sample).
	keysRemapped atomic.Uint64

	latency prom.Summary // per-job migration latency (export to release)
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	s := &m.set
	s.Counter("gcelastic_rebalances_total", "Migration passes run after topology changes.", &m.rebalances)
	s.Counter("gcelastic_jobs_migrated_total", "Jobs moved between backends by checkpoint transfer.", &m.jobsMigrated)
	s.Counter("gcelastic_jobs_resubmitted_total", "Jobs rescued by registry resubmission after their owner died.", &m.jobsResubmitted)
	s.Counter("gcelastic_migrations_verified_total", "Import receipts that matched the exported position.", &m.migrationsVerified)
	s.Counter("gcelastic_migrations_failed_total", "Migrations or rescues that failed a pass.", &m.migrationsFailed)
	s.Counter("gcelastic_migration_bytes_total", "Checkpoint envelope bytes shipped between backends.", &m.migrationBytes)
	s.GaugeFloat("gcelastic_keys_remapped_fraction", "Fraction of sampled keys whose owner changed in the last topology change.", m.KeysRemappedFraction)
	s.Summary("gcelastic_migration_seconds", "Per-job migration latency, export to release (upper-bound quantile estimates).", &m.latency, 0.5, 0.99)
	return m
}

// Set returns the gcelastic_* families, for the /metrics scrape.
func (m *Metrics) Set() *prom.Set { return &m.set }

// SetKeysRemappedFraction records the fraction of sampled keys whose owner
// changed in the most recent topology change.
func (m *Metrics) SetKeysRemappedFraction(f float64) {
	m.keysRemapped.Store(math.Float64bits(f))
}

// KeysRemappedFraction returns the last recorded remap fraction.
func (m *Metrics) KeysRemappedFraction() float64 {
	return math.Float64frombits(m.keysRemapped.Load())
}

// Rebalances returns the rebalance-pass count.
func (m *Metrics) Rebalances() int64 { return m.rebalances.Load() }

// JobsMigrated returns the checkpoint-transfer count.
func (m *Metrics) JobsMigrated() int64 { return m.jobsMigrated.Load() }

// JobsResubmitted returns the registry-rescue count.
func (m *Metrics) JobsResubmitted() int64 { return m.jobsResubmitted.Load() }
