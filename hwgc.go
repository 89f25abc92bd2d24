// Package hwgc is a library-grade reproduction of the system described in
// O. Horvath and M. Meyer, "Fine-Grained Parallel Compacting Garbage
// Collection through Hardware-Supported Synchronization" (ICPP 2010).
//
// The paper parallelizes Cheney's copying collector at object granularity
// with a single shared work list — the tospace region between the scan and
// free pointers — and makes the required synchronization affordable with a
// multi-core GC coprocessor: hardware locks for scan/free, per-core
// header-lock registers compared in parallel, hardware termination
// detection, a memory access scheduler that orders header accesses with a
// comparator array, and an on-chip FIFO for gray tospace headers.
//
// This package exposes:
//
//   - a word-addressed semispace object heap (NewHeap) with the paper's
//     object layout (two-word header, pointer area, data area);
//   - a deterministic cycle-stepped simulator of the coprocessor (Collect),
//     which reports the paper's metrics: collection duration in clock
//     cycles, per-cause stall cycles, empty-work-list cycles, FIFO and
//     memory statistics;
//   - an untimed reference collector and a verification oracle
//     (CollectSequential, Snapshot, Verify);
//   - the synthetic workload suite standing in for the paper's Java
//     benchmarks (Workloads, RunBenchmark, SweepCores);
//   - a mutator driver for multi-collection runs (NewMutator);
//   - software-parallel baseline collectors from the paper's related-work
//     discussion (Baselines, RunBaseline) for comparison;
//   - a monitoring facility in the spirit of the prototype's on-chip signal
//     tracer (NewMonitor, CollectTraced).
//
// All simulated measurements are deterministic: the same heap, seed and
// configuration produce bit-identical statistics.
package hwgc

import (
	"io"

	"hwgc/internal/baseline"
	"hwgc/internal/core"
	"hwgc/internal/gcalgo"
	"hwgc/internal/heap"
	"hwgc/internal/machine"
	"hwgc/internal/mutator"
	"hwgc/internal/object"
	"hwgc/internal/plan"
	"hwgc/internal/trace"
	"hwgc/internal/workload"
)

// Core data types, aliased from the internal packages so their methods and
// fields are part of the public API.
type (
	// Addr is a word address in the simulated memory; 0 is the nil pointer.
	Addr = object.Addr
	// Word is one memory word.
	Word = object.Word
	// Header is a decoded object header.
	Header = object.Header
	// Heap is a two-semispace object heap.
	Heap = heap.Heap
	// Config parameterizes the simulated GC coprocessor.
	Config = machine.Config
	// Stats reports one simulated collection cycle.
	Stats = machine.Stats
	// CoreStats holds the per-core counters of Stats.
	CoreStats = machine.CoreStats
	// Plan is a buildable description of an object graph.
	Plan = workload.Plan
	// WorkloadSpec is a named benchmark workload.
	WorkloadSpec = workload.Spec
	// Graph is the canonical logical object graph used for verification.
	Graph = gcalgo.Graph
	// RunResult is the outcome of one verified benchmark collection.
	RunResult = core.RunResult
	// Monitor samples the coprocessor's internal signals while it runs.
	Monitor = trace.Monitor
	// Mutator drives a heap through allocation and collection cycles.
	Mutator = mutator.Mutator
	// ChurnConfig parameterizes Mutator.RunChurn.
	ChurnConfig = mutator.ChurnConfig
	// MutOp is one operation of a concurrent-mode mutator (the paper's
	// Section V-B "next step", implemented as an extension).
	MutOp = machine.MutOp
	// MutKind enumerates concurrent mutator operations.
	MutKind = machine.MutKind
	// MutDriver produces a concurrent mutator's operation stream.
	MutDriver = machine.MutDriver
	// MutatorStats reports a concurrent mutator's progress and stalls.
	MutatorStats = machine.MutatorStats
	// BarrierMode selects the write-barrier discipline the concurrent
	// mutator's pointer stores go through.
	BarrierMode = machine.BarrierMode
	// NUMAPlacement selects how the collector places the tospace relative
	// to the NUMA domains (Config.NUMAPlacement).
	NUMAPlacement = machine.NUMAPlacement
)

// Write-barrier modes for concurrent collection (Config.BarrierMode).
const (
	// BarrierNone performs pointer stores with no barrier bookkeeping.
	BarrierNone = machine.BarrierNone
	// BarrierSATB is the Yuasa-style snapshot-at-the-beginning deletion
	// barrier: the overwritten slot's old target is shaded.
	BarrierSATB = machine.BarrierSATB
	// BarrierIncUpdate is the Dijkstra-style incremental-update insertion
	// barrier: the newly stored target is shaded.
	BarrierIncUpdate = machine.BarrierIncUpdate
)

// Tospace placement policies for the NUMA model (Config.NUMAPlacement).
const (
	// PlacementNaive interleaves the tospace across all domains.
	PlacementNaive = machine.PlacementNaive
	// PlacementLocal serves each core's evacuation window from its own
	// domain, so copied words never cross a domain boundary.
	PlacementLocal = machine.PlacementLocal
)

// Concurrent mutator operation kinds.
const (
	MutNop       = machine.MutNop
	MutLoadRoot  = machine.MutLoadRoot
	MutStoreRoot = machine.MutStoreRoot
	MutLoadPtr   = machine.MutLoadPtr
	MutStorePtr  = machine.MutStorePtr
	MutLoadData  = machine.MutLoadData
	MutStoreData = machine.MutStoreData
	MutAlloc     = machine.MutAlloc
)

// NilPtr is the null object reference.
const NilPtr = object.NilPtr

// NewHeap creates a heap with two semispaces of semiWords words each.
func NewHeap(semiWords int) *Heap { return heap.New(semiWords) }

// Collect runs one garbage collection cycle over h on the simulated
// multi-core coprocessor and returns its clock-cycle statistics. On return
// the heap has been flipped and compacted.
func Collect(h *Heap, cfg Config) (Stats, error) { return core.CollectOnce(h, cfg, false) }

// CollectVerified is Collect plus an oracle check that the collection
// preserved the logical object graph exactly and compacted perfectly.
func CollectVerified(h *Heap, cfg Config) (Stats, error) {
	return core.CollectOnce(h, cfg, true)
}

// CollectTraced runs Collect with a Monitor attached, sampling the
// coprocessor's internal signals every mon.Interval cycles.
func CollectTraced(h *Heap, cfg Config, mon *Monitor) (Stats, error) {
	m, err := machine.New(h, cfg)
	if err != nil {
		return Stats{}, err
	}
	mon.Attach(m)
	return m.Collect()
}

// NewConcurrentChurn returns a deterministic MutDriver performing a
// randomized pointer-chasing / field-writing / allocating workload over the
// heap's roots, for use with CollectConcurrent.
func NewConcurrentChurn(h *Heap, seed int64, maxOps, maxAllocs int64) MutDriver {
	return machine.NewConcurrentChurn(h, seed, maxOps, maxAllocs)
}

// CollectConcurrent runs one collection cycle with a mutator executing
// concurrently on the coprocessor's mutator port, under a wait-until-black
// access barrier (the extension of the paper's Section V-B outlook). The
// driver supplies the mutator's operations; period is the number of idle
// cycles between them. Returns the collection statistics and the mutator's
// side of the story, whose MaxOpLatency is the concurrent analogue of the
// stop-the-world pause.
func CollectConcurrent(h *Heap, cfg Config, driver MutDriver, period int) (Stats, MutatorStats, error) {
	m, err := machine.New(h, cfg)
	if err != nil {
		return Stats{}, MutatorStats{}, err
	}
	return m.CollectConcurrent(driver, period)
}

// CollectSequential runs the untimed reference implementation of Cheney's
// sequential algorithm over h (useful as a specification and for fast bulk
// collections in tests).
func CollectSequential(h *Heap) (liveObjects, liveWords int, err error) {
	return gcalgo.Collect(h)
}

// Snapshot captures the canonical logical object graph of h's current
// space, for later comparison with Verify.
func Snapshot(h *Heap) (*Graph, error) { return gcalgo.Snapshot(h) }

// Verify checks that h holds exactly the logical graph captured before a
// collection, with perfect compaction.
func Verify(before *Graph, h *Heap) error { return gcalgo.VerifyCollection(before, h) }

// NewMonitor creates a signal monitor sampling every interval cycles and
// retaining up to maxSamples samples.
func NewMonitor(interval int64, maxSamples int) *Monitor {
	return trace.NewMonitor(interval, maxSamples)
}

// NewMutator creates a mutator over a fresh heap with the given semispace
// size, collected by a coprocessor configured with cfg.
func NewMutator(semiWords int, cfg Config) (*Mutator, error) {
	return mutator.New(semiWords, cfg)
}

// Workloads returns the names of the built-in benchmark workloads, in the
// paper's table order.
func Workloads() []string { return workload.Names() }

// ReadPlan decodes and validates a JSON-encoded object-graph plan (a custom
// workload); see WritePlan for the format. The codec (one implementation,
// shared by the CLI, the gcserved service and the fuzz target) lives in
// internal/plan.
func ReadPlan(r io.Reader) (*Plan, error) { return plan.Read(r) }

// ReadPlanFile decodes and validates the JSON plan stored at path.
func ReadPlanFile(path string) (*Plan, error) { return plan.ReadFile(path) }

// WritePlan encodes a plan as JSON.
func WritePlan(w io.Writer, p *Plan) error { return plan.Write(w, p) }

// Workload returns the named benchmark workload.
func Workload(name string) (WorkloadSpec, error) { return workload.Get(name) }

// BuildWorkload constructs a fresh heap holding the named benchmark's object
// graph at the given scale and seed.
func BuildWorkload(name string, scale int, seed int64) (*Heap, error) {
	h, _, err := core.BuildBench(name, scale, seed)
	return h, err
}

// RunBenchmark builds the named benchmark and runs one collection with cfg,
// verifying the result against the reference oracle when verify is set.
func RunBenchmark(name string, scale int, seed int64, cfg Config, verify bool) (RunResult, error) {
	return core.RunBenchmark(name, scale, seed, cfg, verify)
}

// RunPlan builds a heap from a custom plan and runs one collection with cfg,
// verifying against the reference oracle when verify is set. name labels the
// result (the CLI uses the plan's file name; the server uses "plan").
func RunPlan(name string, p *Plan, cfg Config, verify bool) (RunResult, error) {
	return core.RunPlan(name, p, cfg, verify)
}

// SweepCores runs the named benchmark once per core count on identically
// built heaps — the measurement underlying the paper's Figures 5/6 and
// Table I.
func SweepCores(name string, coreCounts []int, scale int, seed int64, cfg Config, verify bool) ([]RunResult, error) {
	return core.SweepCores(name, coreCounts, scale, seed, cfg, verify)
}

// PaperCoreCounts are the coprocessor sizes measured in the paper (1, 2, 4,
// 8, 16).
var PaperCoreCounts = []int{1, 2, 4, 8, 16}

// BaselineResult describes one software-parallel baseline collection.
type BaselineResult = baseline.Result

// SyncCounts tallies the synchronization operations a software collector
// performed — the cost the paper's hardware support removes.
type SyncCounts = baseline.SyncCounts

// Baselines returns the names of the software-parallel baseline collectors
// from the paper's related-work discussion: "finegrained" (the paper's own
// algorithm with software atomics), "chunked" (Imai/Tick), "workpackets"
// (Ossia et al.), "stealing" (Flood et al.) and "taskpush" (Wu/Li).
func Baselines() []string { return baseline.Names() }

// BaselineDescription returns a one-line description of the named baseline.
func BaselineDescription(name string) (string, error) {
	c, err := baseline.ByName(name)
	if err != nil {
		return "", err
	}
	return c.Description(), nil
}

// RunBaseline collects h with the named software-parallel collector using
// the given number of goroutines. Unlike the coprocessor, the chunk/LAB
// based baselines may leave filler objects in tospace; the returned result
// reports those wasted words.
func RunBaseline(name string, h *Heap, workers int) (BaselineResult, error) {
	c, err := baseline.ByName(name)
	if err != nil {
		return BaselineResult{}, err
	}
	return c.Collect(h, workers)
}

// VerifyPreserved checks that a baseline collection preserved the logical
// object graph (without requiring perfect compaction, which the chunk/LAB
// collectors intentionally trade away).
func VerifyPreserved(before *Graph, h *Heap) error {
	return gcalgo.VerifyPreserved(before, h)
}
