package jobs

import (
	"sync/atomic"

	"hwgc/internal/prom"
)

// Metrics is the job subsystem's counter set, written in Prometheus text
// exposition format as part of gcserved's /metrics scrape. Following the
// paper's stall-accounting discipline, every reason a job is not running is
// attributable: queued behind its class (per-class depth), preempted for
// higher-priority work, waiting out a WAL fsync, or recovering after a
// crash (replays, resumes, reclaimed checkpoint files).
type Metrics struct {
	set prom.Set

	// depths samples the live per-class queue depth at scrape time; Open
	// points it at the scheduler.
	depths func() map[string]int

	submitted atomic.Int64 // jobs accepted with a new ID
	deduped   atomic.Int64 // submissions coalesced onto an existing job
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	running   atomic.Int64 // gauge

	preemptions  atomic.Int64 // checkpoint-boundary yields to higher-priority work
	resumes      atomic.Int64 // dispatches that continued from a checkpoint
	freshStarts  atomic.Int64 // dispatches that started from cycle 0, point 0
	checkpoints  atomic.Int64 // snapshots persisted
	ckptReclaims atomic.Int64 // checkpoint files swept (terminal, unknown or unreadable)

	migrated        atomic.Int64 // jobs released after a verified handoff elsewhere
	exports         atomic.Int64 // checkpoint envelopes served
	imports         atomic.Int64 // foreign envelopes adopted as local jobs
	importsDeduped  atomic.Int64 // imports coalesced onto an existing job by content key
	importsRejected atomic.Int64 // envelopes rejected by validation

	walRecords         atomic.Int64
	walReplayedRecords atomic.Int64
	walReplays         atomic.Int64
	walTruncatedBytes  atomic.Int64
	walCompactions     atomic.Int64

	fsync prom.Summary // WAL fsync latency
	// firstCkpt is the latency from a fresh dispatch to the job's first
	// persisted checkpoint — the window during which a crash or preemption
	// still loses work, i.e. the subsystem's exposure time.
	firstCkpt prom.Summary
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	s := &m.set
	s.Labelled("gcjobs_queue_depth", "Queued jobs per priority class.", "gauge", []string{"class"}, func(emit prom.Emit) {
		if m.depths != nil {
			for class, n := range m.depths() {
				emit(int64(n), class)
			}
		}
	})
	s.Gauge("gcjobs_running", "Jobs currently executing on the runner pool.", &m.running)
	s.Counter("gcjobs_submitted_total", "Jobs accepted with a new ID.", &m.submitted)
	s.Counter("gcjobs_deduped_total", "Submissions coalesced onto an existing job by content key.", &m.deduped)
	s.Counter("gcjobs_completed_total", "Jobs that reached the done state.", &m.completed)
	s.Counter("gcjobs_failed_total", "Jobs that reached the failed state.", &m.failed)
	s.Counter("gcjobs_cancelled_total", "Jobs cancelled by DELETE.", &m.cancelled)
	s.Counter("gcjobs_migrated_total", "Jobs released locally after a verified handoff to another backend.", &m.migrated)
	s.Counter("gcjobs_checkpoint_exports_total", "Checkpoint envelopes served for migration.", &m.exports)
	s.Counter("gcjobs_checkpoint_imports_total", "Foreign checkpoint envelopes adopted as local jobs.", &m.imports)
	s.Counter("gcjobs_checkpoint_imports_deduped_total", "Imports coalesced onto an existing job by content key.", &m.importsDeduped)
	s.Counter("gcjobs_checkpoint_imports_rejected_total", "Checkpoint envelopes rejected by validation.", &m.importsRejected)
	s.Counter("gcjobs_preemptions_total", "Checkpoint-boundary yields to higher-priority work or drain.", &m.preemptions)
	s.Counter("gcjobs_resumes_total", "Dispatches that continued a job from its checkpoint.", &m.resumes)
	s.Counter("gcjobs_fresh_starts_total", "Dispatches that started a job from scratch.", &m.freshStarts)
	s.Counter("gcjobs_checkpoints_saved_total", "Job snapshots persisted to the jobs directory.", &m.checkpoints)
	s.Counter("gcjobs_checkpoint_files_reclaimed_total", "Checkpoint files swept for terminal, unknown or unreadable jobs.", &m.ckptReclaims)
	s.Counter("gcjobs_wal_records_total", "Records appended to the write-ahead log.", &m.walRecords)
	s.Counter("gcjobs_wal_replays_total", "WAL replays performed at startup.", &m.walReplays)
	s.Counter("gcjobs_wal_replayed_records_total", "Records rebuilt from the WAL at startup.", &m.walReplayedRecords)
	s.Counter("gcjobs_wal_truncated_bytes_total", "Torn-tail bytes truncated from the WAL on replay.", &m.walTruncatedBytes)
	s.Counter("gcjobs_wal_compactions_total", "WAL compaction rewrites.", &m.walCompactions)
	s.Summary("gcjobs_wal_fsync_seconds", "WAL fsync latency (upper-bound quantile estimates).", &m.fsync, 0.5, 0.99)
	s.Summary("gcjobs_time_to_first_checkpoint_seconds", "Latency from fresh dispatch to first persisted checkpoint.", &m.firstCkpt, 0.5, 0.99)
	return m
}
