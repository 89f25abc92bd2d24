// Command gcserved serves the hwgc simulator over HTTP/JSON: a fixed worker
// pool over a bounded job queue with 429 backpressure, a content-addressed
// LRU result cache (simulations are deterministic, so hits are
// byte-identical), per-request deadlines, Prometheus-format metrics and
// graceful shutdown that drains admitted jobs. With -checkpoint-dir set,
// long collections checkpoint their simulator state every -checkpoint-cycles
// clock cycles: shutdown preempts in-flight jobs at a snapshot boundary
// instead of waiting them out, and a restarted server resumes them from disk
// with byte-identical results.
//
// Usage:
//
//	gcserved [-addr :8080] [-workers N] [-queue 64] [-cache-entries 1024]
//	         [-cache-mb 64] [-timeout 60s] [-max-scale 64] [-retry-after 1s]
//	         [-checkpoint-dir DIR] [-checkpoint-cycles 200000]
//	         [-jobs-dir DIR] [-job-classes interactive:8,batch:1] [-job-runners 2]
//
// Endpoints:
//
//	POST /v1/collect   {"Bench":"javac","Scale":1,"Seed":42,"Config":{"Cores":16}}
//	POST /v1/sweep     {"Bench":"javac","Cores":[1,2,4,8,16],"Config":{}}
//	POST /v1/batch     {"Items":[{"Collect":{...}},{"Sweep":{...}}]}
//	GET  /v1/workloads
//	GET  /healthz
//	GET  /metrics
//
// With -jobs-dir set, the durable async job tier is mounted as well:
// POST /v1/jobs, GET /v1/jobs/{id}[/result|/events], DELETE /v1/jobs/{id}.
// Submissions, transitions and results are WAL-logged in -jobs-dir, running
// jobs checkpoint every -checkpoint-cycles and yield to higher-priority
// classes at those boundaries, and a restarted server resumes unfinished
// jobs with byte-identical results.
//
// The job tier also mounts parameter-space sweeps (see internal/sweep):
// POST /v1/sweeps expands a versioned SweepSpace spec into canonical
// collect points, dedupes against cached results and fans the remainder
// out as jobs; GET /v1/sweeps/{id} reports progress plus the current
// ranked frontier; GET /v1/sweeps/{id}/events streams frontier updates
// over SSE with Last-Event-ID resume; DELETE /v1/sweeps/{id} cancels.
// Sweep state rides the jobs WAL, so a restart resumes unfinished sweeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hwgc/internal/jobs"
	"hwgc/internal/server"
)

func main() {
	addr, opts, drain, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcserved:", err)
		os.Exit(2)
	}
	if err := run(addr, opts, drain); err != nil {
		fmt.Fprintln(os.Stderr, "gcserved:", err)
		os.Exit(1)
	}
}

// parseOptions turns CLI arguments into server options. Split from main so
// flag wiring is testable without spawning a process.
func parseOptions(args []string) (addr string, opts server.Options, drain time.Duration, err error) {
	fs := flag.NewFlagSet("gcserved", flag.ContinueOnError)
	var (
		addrFlag     = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "bounded job queue depth")
		cacheEntries = fs.Int("cache-entries", 1024, "result cache entry bound")
		cacheMB      = fs.Int64("cache-mb", 64, "result cache size bound in MiB")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request deadline (queue wait + simulation)")
		maxScale     = fs.Int("max-scale", 64, "largest accepted workload scale (-1 = unlimited)")
		retryAfter   = fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses (rounded up to whole seconds)")
		drainFlag    = fs.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		ckptDir      = fs.String("checkpoint-dir", "", "directory for simulation checkpoints; enables preempt-on-shutdown and crash recovery")
		ckptCycles   = fs.Int64("checkpoint-cycles", 0, "clock cycles between checkpoints (0 = default 200000)")
		jobsDir      = fs.String("jobs-dir", "", "directory for the durable async job tier (WAL + job checkpoints); enables /v1/jobs")
		jobClasses   = fs.String("job-classes", "", "async job priority classes as name:weight,... (default interactive:8,batch:1)")
		jobRunners   = fs.Int("job-runners", 0, "async job runners (0 = default 2)")
	)
	if err := fs.Parse(args); err != nil {
		return "", server.Options{}, 0, err
	}
	if fs.NArg() > 0 {
		return "", server.Options{}, 0, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *retryAfter <= 0 {
		return "", server.Options{}, 0, fmt.Errorf("-retry-after must be positive, got %s", *retryAfter)
	}
	if *ckptCycles < 0 {
		return "", server.Options{}, 0, fmt.Errorf("-checkpoint-cycles must be nonnegative, got %d", *ckptCycles)
	}
	if *ckptCycles > 0 && *ckptDir == "" && *jobsDir == "" {
		return "", server.Options{}, 0, fmt.Errorf("-checkpoint-cycles requires -checkpoint-dir or -jobs-dir")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return "", server.Options{}, 0, fmt.Errorf("-checkpoint-dir: %v", err)
		}
	}
	if *jobClasses != "" && *jobsDir == "" {
		return "", server.Options{}, 0, fmt.Errorf("-job-classes requires -jobs-dir")
	}
	if *jobRunners < 0 {
		return "", server.Options{}, 0, fmt.Errorf("-job-runners must be nonnegative, got %d", *jobRunners)
	}
	if *jobRunners > 0 && *jobsDir == "" {
		return "", server.Options{}, 0, fmt.Errorf("-job-runners requires -jobs-dir")
	}
	if *jobClasses != "" {
		if _, err := jobs.ParseClasses(*jobClasses); err != nil {
			return "", server.Options{}, 0, fmt.Errorf("-job-classes: %v", err)
		}
	}
	return *addrFlag, server.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheMB << 20,
		Timeout:          *timeout,
		MaxScale:         *maxScale,
		RetryAfter:       *retryAfter,
		CheckpointDir:    *ckptDir,
		CheckpointCycles: *ckptCycles,
		JobsDir:          *jobsDir,
		JobClasses:       *jobClasses,
		JobRunners:       *jobRunners,
	}, *drainFlag, nil
}

func run(addr string, opts server.Options, drain time.Duration) error {
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	srv.Start()

	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("gcserved: listening on %s (workers %d, queue %d)", addr, srv.Workers(), srv.Queue().Cap())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("gcserved: shutting down, draining for up to %s", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Drain the serving layer before the HTTP layer: handlers of in-flight
	// jobs only unblock once the pool drains (checkpointed jobs preempt at
	// their next snapshot boundary when draining begins), and hs.Shutdown
	// waits for those very handlers — the reverse order deadlocks until the
	// drain deadline. New requests keep getting clean 503s meanwhile.
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("gcserved: http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("gcserved: drained cleanly")
	return nil
}
