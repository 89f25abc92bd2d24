// Package core ties the paper's primary contribution together: it builds
// benchmark heaps, runs every collection of the simulated multi-core GC
// coprocessor (internal/machine) through one suspendable lifecycle (Run)
// that verifies it against the reference oracle (internal/gcalgo), and
// exposes the sweep helpers the experiment harness and the public API are
// built on.
package core

import (
	"fmt"

	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/machine"
	"hwgc/internal/snapshot"
	"hwgc/internal/workload"
)

// Config re-exports the coprocessor configuration.
type Config = machine.Config

// Stats re-exports the per-collection statistics.
type Stats = machine.Stats

// DefaultSeed is the seed used by the experiment harness, chosen once so
// every table and figure is reproducible bit for bit.
const DefaultSeed int64 = 42

// DefaultHeadroom follows the paper's rule of thumb of dimensioning the heap
// at twice the minimal size.
const DefaultHeadroom = 2.0

// RunResult describes one verified collection of one benchmark heap.
type RunResult struct {
	Benchmark string
	Stats     Stats
	// PlanObjects/PlanWords: total allocated (live + garbage).
	PlanObjects int
	PlanWords   int
	// LiveObjects/LiveWords: reachable from the roots, i.e. surviving.
	LiveObjects int
	LiveWords   int
}

// BuildBench constructs a fresh heap for the named benchmark.
func BuildBench(bench string, scale int, seed int64) (*heap.Heap, *workload.Plan, error) {
	spec, err := workload.Get(bench)
	if err != nil {
		return nil, nil, err
	}
	if scale < 1 {
		scale = 1
	}
	plan := spec.Plan(scale, seed)
	h, err := plan.BuildHeap(DefaultHeadroom)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building %s: %w", bench, err)
	}
	return h, plan, nil
}

// Run is one suspendable collection of a built heap, and the one lifecycle
// every collection goes through: run straight through (CollectOnce,
// RunBenchmark, RunPlan) or stepped, snapshotted between clock cycles and
// resumed from the snapshot bytes, possibly in another process (the public
// Collection and RequestCollection, gcserved's checkpoints, the jobs
// tier). A resumed run finishes bit-identical to the uninterrupted one.
type Run struct {
	m      *machine.Machine
	res    RunResult // the plan's statistics; zero for a heap built otherwise
	verify bool
	// before is the pre-GC oracle graph of a verified stop-the-world run.
	// With the built-in concurrent mutator the heap graph changes during
	// the collection, so the oracle cannot predict the outcome and
	// verification falls back to the structural integrity check.
	before *gcalgo.Graph
}

// newRun captures what Finish needs besides the machine: the plan's
// statistics for the result and, for a verified stop-the-world run, the
// oracle graph of h before the collection. It keeps no reference to the
// plan, so a caller that drops its own can let the plan be freed while the
// collection runs.
func newRun(h *heap.Heap, plan *workload.Plan, cfg Config, verify bool) (*Run, error) {
	r := &Run{verify: verify}
	if plan != nil {
		r.res.PlanObjects, r.res.PlanWords = len(plan.Objs), plan.Words()
		r.res.LiveObjects, r.res.LiveWords = plan.LiveStats()
	}
	if verify && cfg.WithDefaults().MutatorOps == 0 {
		var err error
		if r.before, err = gcalgo.Snapshot(h); err != nil {
			return nil, fmt.Errorf("core: pre-GC snapshot: %w", err)
		}
	}
	return r, nil
}

// Start begins a collection of h, built from plan (nil when built some
// other way), suspended at cycle 0; when verify is set Finish checks the
// outcome. The heap is owned by the run until Finish returns.
func Start(h *heap.Heap, plan *workload.Plan, cfg Config, verify bool) (*Run, error) {
	r, err := newRun(h, plan, cfg, verify)
	if err != nil {
		return nil, err
	}
	if r.m, err = machine.New(h, cfg); err != nil {
		return nil, err
	}
	r.m.BeginCollect()
	return r, nil
}

// Restore reconstructs a suspended run from the bytes its Snapshot method
// produced, with nothing else to go on: it is not verified and reports no
// plan statistics. It owns a private copy of the captured heap.
func Restore(snap []byte) (*Run, error) {
	st, err := snapshot.Decode(snap)
	if err != nil {
		return nil, err
	}
	m, err := machine.RestoreMachine(st)
	if err != nil {
		return nil, err
	}
	return &Run{m: m}, nil
}

// Resume reconstructs the run Start(h, plan, cfg, verify) began and its
// Snapshot method suspended as snap. The caller rebuilds h and plan as for
// Start; h is read only by the oracle, the machine state comes from snap,
// whose config must equal cfg.
func Resume(h *heap.Heap, plan *workload.Plan, cfg Config, verify bool, snap []byte) (*Run, error) {
	restored, err := Restore(snap)
	if err != nil {
		return nil, err
	}
	if got, want := restored.m.Config(), cfg.WithDefaults(); got != want {
		return nil, fmt.Errorf("core: snapshot config %+v does not match request config %+v", got, want)
	}
	r, err := newRun(h, plan, cfg, verify)
	if err != nil {
		return nil, err
	}
	r.m = restored.m
	return r, nil
}

// Heap returns the heap the run collects.
func (r *Run) Heap() *heap.Heap { return r.m.Heap() }

// Cycle returns the run's current clock cycle.
func (r *Run) Cycle() int64 { return r.m.Cycle() }

// StepCycle advances the run by one clock cycle (or one provably dead
// fast-forward jump) and reports whether it has terminated.
func (r *Run) StepCycle() (done bool, err error) { return r.m.StepCycle() }

// StepCycles advances the run until at least n more cycles have elapsed,
// it terminates, or an error occurs.
func (r *Run) StepCycles(n int64) (done bool, err error) { return r.m.StepCycles(n) }

// Snapshot serializes the run's complete state. It fails once the
// collection has terminated (there is nothing left to resume — call
// Finish) or after an error.
func (r *Run) Snapshot() ([]byte, error) {
	st, err := r.m.Snapshot()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(st), nil
}

// Finish drives the run to completion (if it is not already done),
// verifies it when asked, and returns its statistics; the heap has then
// been flipped and compacted, exactly as an uninterrupted run leaves it.
func (r *Run) Finish() (Stats, error) {
	st, err := r.m.Resume()
	if err != nil || !r.verify {
		return st, err
	}
	return st, checkHeap(r.m.Heap(), r.before)
}

// checkHeap verifies a finished heap against the oracle graph before, or
// with the structural integrity check when there is none (a concurrent
// run). It takes no Run: once a caller stops using its Run, the machine's
// buffers can be collected while the oracle builds its graph of the heap.
func checkHeap(h *heap.Heap, before *gcalgo.Graph) error {
	if before == nil {
		if err := h.CheckIntegrity(); err != nil {
			return fmt.Errorf("core: concurrent collection verification failed: %w", err)
		}
	} else if err := gcalgo.VerifyCollection(before, h); err != nil {
		return fmt.Errorf("core: collection verification failed: %w", err)
	}
	return nil
}

// Result finishes the run and returns it as the RunResult labelled name.
func (r *Run) Result(name string) (RunResult, error) {
	res := r.res
	res.Benchmark = name
	var err error
	if res.Stats, err = r.Finish(); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// CollectOnce runs a single simulated collection cycle over h and, when
// verify is set, checks the result against the reference oracle.
func CollectOnce(h *heap.Heap, cfg Config, verify bool) (Stats, error) {
	r, err := Start(h, nil, cfg, verify)
	if err != nil {
		return Stats{}, err
	}
	return r.Finish()
}

// collect runs one collection of h, built from plan, labelled name.
func collect(name string, h *heap.Heap, plan *workload.Plan, cfg Config, verify bool) (RunResult, error) {
	r, err := Start(h, plan, cfg, verify)
	if err == nil {
		var res RunResult
		if res, err = r.Result(name); err == nil {
			return res, nil
		}
	}
	return RunResult{}, fmt.Errorf("core: %s: %w", name, err)
}

// RunBenchmark builds the named benchmark at the given scale/seed and runs
// one verified collection with cfg.
func RunBenchmark(bench string, scale int, seed int64, cfg Config, verify bool) (RunResult, error) {
	h, plan, err := BuildBench(bench, scale, seed)
	if err != nil {
		return RunResult{}, err
	}
	return collect(bench, h, plan, cfg, verify)
}

// RunPlan builds a heap from a custom (user-supplied) plan and runs one
// collection with cfg, optionally verified. name labels the result.
func RunPlan(name string, plan *workload.Plan, cfg Config, verify bool) (RunResult, error) {
	if err := plan.Validate(); err != nil {
		return RunResult{}, err
	}
	h, err := plan.BuildHeap(DefaultHeadroom)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: building plan: %w", err)
	}
	return collect(name, h, plan, cfg, verify)
}

// SweepCores runs the benchmark once per core count and returns the results
// in order. It builds the heap once and collects a copy of it per core
// count, so every point starts from the identical heap. This is the
// measurement underlying the paper's Figures 5 and 6 and Table I.
func SweepCores(bench string, coreCounts []int, scale int, seed int64, cfg Config, verify bool) ([]RunResult, error) {
	out := make([]RunResult, 0, len(coreCounts))
	if len(coreCounts) == 0 {
		return out, nil
	}
	h, plan, err := BuildBench(bench, scale, seed)
	if err != nil {
		return nil, fmt.Errorf("core: sweep %s at %d cores: %w", bench, coreCounts[0], err)
	}
	for i, n := range coreCounts {
		c := cfg
		c.Cores = n
		run, p := h, plan
		if i < len(coreCounts)-1 {
			run = h.Clone()
		} else {
			// The last point collects the built heap itself. Dropping the
			// sweep's reference to the plan lets it be freed while that
			// collection runs.
			plan = nil
		}
		r, err := collect(bench, run, p, c, verify)
		if err != nil {
			return nil, fmt.Errorf("core: sweep %s at %d cores: %w", bench, n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// PaperCoreCounts are the coprocessor sizes measured in the paper.
var PaperCoreCounts = []int{1, 2, 4, 8, 16}
