// Package server implements gcserved, the HTTP/JSON simulation-serving
// subsystem. It turns the one-shot simulator library into a long-running
// service with the same contention discipline the paper applies to GC
// synchronization: the uncontended path is free (cache hits bypass the
// queue entirely), contention is bounded (a fixed worker pool over a
// bounded queue, with 429 backpressure instead of unbounded queueing), and
// every stall is accounted for (queue depth, rejections, timeouts and
// latency percentiles on /metrics).
//
// Endpoints:
//
//	POST /v1/collect   run one collection (named benchmark or inline plan)
//	POST /v1/sweep     run a Fig. 5-style core-count sweep
//	POST /v1/batch     run a list of collect/sweep items, per-item results
//	GET  /v1/workloads list benchmark workloads and baselines
//	GET  /healthz      liveness + pool state
//	GET  /metrics      Prometheus text-format counters
//
// With Options.JobsDir set, the durable async job tier (internal/jobs) is
// mounted as well:
//
//	POST   /v1/jobs              submit a collect/sweep job (202 + job info)
//	GET    /v1/jobs              list jobs (?active=true for non-terminal only)
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  final result body (202 until done)
//	GET    /v1/jobs/{id}/events  lifecycle events as a Server-Sent-Events stream
//	DELETE /v1/jobs/{id}         cancel (at the next checkpoint boundary)
//
// The checkpoint-transfer endpoints make jobs portable between backends —
// the primitive behind the elastic fleet tier's live migration:
//
//	GET    /v1/jobs/{id}/checkpoint  export the job's position as an envelope
//	PUT    /v1/jobs/{id}/checkpoint  adopt a foreign envelope (idempotent by key)
//	DELETE /v1/jobs/{id}/checkpoint  release the job here as migrated
//
// The sweep engine (internal/sweep) also rides the job tier:
//
//	POST   /v1/sweeps               submit a SweepSpace (202 + sweep info)
//	GET    /v1/sweeps/{id}          progress + current ranked frontier
//	GET    /v1/sweeps/{id}/events   per-point completions and frontier updates (SSE)
//	DELETE /v1/sweeps/{id}          cancel outstanding points
package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hwgc"
	"hwgc/internal/jobs"
	"hwgc/internal/sweep"
)

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Workers is the number of simulation workers (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs
	// (default 64). When the queue is full, POSTs get 429 + Retry-After.
	QueueDepth int
	// CacheEntries / CacheBytes bound the content-addressed result cache
	// (defaults 1024 entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// Timeout is the per-request deadline covering queue wait and
	// simulation time (default 60s). A simulation that has already started
	// when the deadline fires runs to completion (the result is cached),
	// but the waiting client gets 504.
	Timeout time.Duration
	// MaxScale rejects requests whose Scale exceeds it (default 64;
	// negative means unlimited) so one request cannot occupy a worker for
	// arbitrarily long.
	MaxScale int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// CheckpointDir, when set, enables checkpointed execution of collect
	// jobs: the simulation state is snapshotted to this directory every
	// CheckpointCycles clock cycles, shutdown preempts running jobs at the
	// next checkpoint boundary instead of waiting them out, and a restarted
	// server resumes orphaned checkpoints from where they stopped.
	CheckpointDir string
	// CheckpointCycles is the snapshot interval in simulated clock cycles
	// (default 200000; only meaningful with CheckpointDir or JobsDir).
	CheckpointCycles int64
	// JobsDir, when set, mounts the durable async job tier (/v1/jobs): a
	// write-ahead log and checkpoint files live in this directory, and a
	// restarted server resumes unfinished jobs from it.
	JobsDir string
	// JobClasses is the priority-class specification ("name:weight,...")
	// for async jobs (default jobs.DefaultClasses; only meaningful with
	// JobsDir).
	JobClasses string
	// JobRunners is the number of async job runners, separate from the
	// synchronous worker pool so queued jobs cannot starve interactive
	// requests of workers (default 2; only meaningful with JobsDir).
	JobRunners int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	// <= 0, not == 0: a negative setting is a misconfiguration, not a
	// request for an unbounded (or disabled) cache, and must normalize to
	// the default exactly like the other knobs above.
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.MaxScale == 0 {
		o.MaxScale = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.CheckpointCycles <= 0 {
		o.CheckpointCycles = 200_000
	}
	if o.JobRunners <= 0 {
		o.JobRunners = 2
	}
	return o
}

// Server is the simulation-serving subsystem: HTTP handlers in front of a
// fixed worker pool over a bounded queue, with a result cache and metrics.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *Cache
	queue   *Queue
	mux     *http.ServeMux
	wg      sync.WaitGroup

	// ckpt is non-nil when Options.CheckpointDir is set; draining is
	// closed when Shutdown begins, which checkpointed jobs poll at each
	// snapshot boundary.
	ckpt     *checkpointStore
	draining chan struct{}

	// jobs is the durable async job manager, non-nil when Options.JobsDir
	// is set. Its runner pool is separate from the synchronous workers.
	jobs *jobs.Manager

	// sweeps is the parameter-space exploration coordinator, non-nil when
	// the job tier is mounted. Sweep state rides the jobs WAL.
	sweeps *sweep.Coordinator

	startOnce sync.Once
	stopOnce  sync.Once

	// runCollect / runSweep execute one canonicalized request and encode
	// the response body. Tests substitute these to control job duration.
	runCollect func(req hwgc.CollectRequest) ([]byte, error)
	runSweep   func(req hwgc.SweepRequest) ([]byte, error)

	// checkpointHook, when set by a test, runs after every checkpoint save
	// (in the worker goroutine) so tests can preempt at an exact boundary.
	checkpointHook func(key string)
}

// New creates a Server. Call Start to spin up the worker pool. It fails
// only when the checkpoint and jobs directories are the same, or when the
// async job tier is enabled and cannot be opened (bad class spec,
// unreadable jobs directory, corrupt WAL).
func New(opts Options) (*Server, error) {
	// Both stores name their files <content key>.ckpt in different formats,
	// so in one directory each would delete or overwrite the other's.
	if opts.CheckpointDir != "" && opts.JobsDir != "" && filepath.Clean(opts.CheckpointDir) == filepath.Clean(opts.JobsDir) {
		return nil, fmt.Errorf("server: checkpoint and jobs directories must differ (both are %s)", opts.CheckpointDir)
	}
	s := &Server{
		opts:     opts.withDefaults(),
		draining: make(chan struct{}),
		runSweep: encodeSweep,
	}
	s.cache = NewCache(s.opts.CacheEntries, s.opts.CacheBytes)
	s.queue = NewQueue(s.opts.QueueDepth)
	s.metrics = newMetrics(s.queue, s.cache)
	s.runCollect = func(req hwgc.CollectRequest) ([]byte, error) { return encodeCollectObserved(req, s.metrics) }
	if s.opts.CheckpointDir != "" {
		s.ckpt = &checkpointStore{dir: s.opts.CheckpointDir}
		s.runCollect = s.runCheckpointed
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/collect", s.handleCollect)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if s.opts.JobsDir != "" {
		classes, err := jobs.ParseClasses(s.opts.JobClasses)
		if err != nil {
			return nil, err
		}
		// Job IDs are the same content address the synchronous path uses as
		// its cache key, so finished job results feed the result cache and
		// later synchronous requests for the same work hit it for free.
		mgr, err := jobs.Open(jobs.Options{
			Dir:              s.opts.JobsDir,
			Classes:          classes,
			Runners:          s.opts.JobRunners,
			CheckpointCycles: s.opts.CheckpointCycles,
			OnResult:         func(id string, body []byte) { s.cache.Put(id, body) },
		})
		if err != nil {
			return nil, err
		}
		s.jobs = mgr
		s.mux.HandleFunc("/v1/jobs", s.handleJobs)
		s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
		// The sweep coordinator plans spaces into collect jobs and dedupes
		// points against the same result cache the job tier feeds.
		coord, err := sweep.New(sweep.Options{Jobs: mgr, Lookup: s.cache.Get})
		if err != nil {
			return nil, err
		}
		if err := coord.Recover(); err != nil {
			return nil, err
		}
		s.sweeps = coord
		coord.Mount(s.mux, s.admitSpace, func(route string, h http.HandlerFunc) http.HandlerFunc {
			return s.instrument(route, false, h)
		})
	}
	return s, nil
}

// admitSpace applies the server-wide scale limit to a sweep space, exactly
// as to single requests.
func (s *Server) admitSpace(space *hwgc.SweepSpace) error {
	for _, sc := range space.Scales {
		if s.opts.MaxScale > 0 && sc > s.opts.MaxScale {
			return fmt.Errorf("scale %d exceeds server limit %d", sc, s.opts.MaxScale)
		}
	}
	return nil
}

func encodeCollect(req hwgc.CollectRequest) ([]byte, error) {
	return encodeCollectObserved(req, nil)
}

func encodeCollectObserved(req hwgc.CollectRequest, m *Metrics) ([]byte, error) {
	resp, err := hwgc.NewCollectResponse(req)
	if err != nil {
		return nil, err
	}
	m.ObserveCollect(resp)
	var b bytes.Buffer
	if err := resp.Encode(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func encodeSweep(req hwgc.SweepRequest) ([]byte, error) {
	resp, err := hwgc.NewSweepResponse(req)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := resp.Encode(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Start launches the worker pool and, when checkpointing is enabled,
// enqueues recovery jobs for checkpoints orphaned by a previous process.
// Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
		if s.ckpt != nil {
			s.recoverCheckpoints()
		}
	})
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counter set (for embedding or tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Workers returns the size of the worker pool (after defaulting).
func (s *Server) Workers() int { return s.opts.Workers }

// Queue exposes the job queue state (for health reporting and tests).
func (s *Server) Queue() *Queue { return s.queue }

// Cache exposes the result cache (for tests).
func (s *Server) Cache() *Cache { return s.cache }

// Shutdown drains gracefully: admission stops (new jobs get 503), every
// job already admitted is executed — except checkpointed collect jobs,
// which persist their state at the next snapshot boundary and stop with
// ErrPreempted — and the worker pool exits. It returns nil once the pool
// has drained, or ctx.Err() if ctx expires first (the workers keep
// draining in the background in that case).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.draining)
		s.queue.Close()
	})
	s.Start() // a never-started pool must still drain admitted jobs
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// Stop the sweep watchers before draining the job tier they watch;
	// in-flight sweeps stay durable in the WAL and resume on the next Open.
	if s.sweeps != nil {
		s.sweeps.Close()
	}
	// Drain the async job tier in parallel with the worker pool: running
	// jobs stop at their next checkpoint boundary (durably, in the WAL), so
	// this is bounded by one checkpoint interval, not by job length.
	var jobsErr error
	if s.jobs != nil {
		jobsErr = s.jobs.Drain(ctx)
	}
	select {
	case <-done:
		return jobsErr
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// worker executes jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		if j.ctx.Err() != nil {
			// The submitting request already gave up; don't burn a worker
			// on a result nobody is waiting for.
			s.metrics.jobsSkipped.Add(1)
			j.finish(nil, j.ctx.Err())
			continue
		}
		s.metrics.jobsStarted.Add(1)
		s.metrics.inflightJobs.Add(1)
		body, err := j.run()
		if err == nil {
			s.cache.Put(j.Key, body)
		}
		s.metrics.inflightJobs.Add(-1)
		s.metrics.jobsDone.Add(1)
		j.finish(body, err)
	}
}

// submit pushes a job and waits for its result or the context deadline.
func (s *Server) submit(ctx context.Context, j *Job) ([]byte, error) {
	if err := s.queue.TryPush(j); err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.body, j.err
	case <-ctx.Done():
		s.metrics.timeouts.Add(1)
		return nil, ctx.Err()
	}
}
