// Package experiments defines the paper's evaluation artifacts — Figure 5,
// Table I, Table II, and Figure 6 — plus the ablations suggested by the
// paper's discussion (header-FIFO capacity, the unlocked mark-read
// optimization, memory bandwidth). Each experiment runs the simulator over
// the synthetic benchmark suite and returns structured results; the
// cmd/experiments tool renders them next to the paper's published values.
package experiments

import (
	"fmt"

	"hwgc/internal/core"
	"hwgc/internal/machine"
	"hwgc/internal/mutator"
	"hwgc/internal/stats"
	"hwgc/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	Scale  int   // workload scale factor (default 1)
	Seed   int64 // workload seed (default core.DefaultSeed)
	Verify bool  // verify every collection against the oracle
	Base   core.Config
}

func (o Options) norm() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = core.DefaultSeed
	}
	return o
}

// ScalingRow is one benchmark's line of Figure 5 / Figure 6.
type ScalingRow struct {
	Bench   string
	Cores   []int
	Cycles  []int64
	Speedup []float64
}

// Scaling measures GC-cycle speedup over the 1-core configuration for every
// benchmark and the given core counts (Figure 5; with ExtraMemLatency=20 in
// the base config it is Figure 6).
func Scaling(benches []string, coreCounts []int, o Options) ([]ScalingRow, error) {
	o = o.norm()
	rows := make([]ScalingRow, 0, len(benches))
	for _, b := range benches {
		res, err := core.SweepCores(b, coreCounts, o.Scale, o.Seed, o.Base, o.Verify)
		if err != nil {
			return nil, err
		}
		row := ScalingRow{Bench: b, Cores: coreCounts}
		base := res[0].Stats.Cycles
		for _, r := range res {
			row.Cycles = append(row.Cycles, r.Stats.Cycles)
			row.Speedup = append(row.Speedup, stats.Speedup(base, r.Stats.Cycles))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// EmptyRow is one benchmark's line of Table I.
type EmptyRow struct {
	Bench    string
	Cores    []int
	Fraction []float64 // of total clock cycles with an empty work list
}

// EmptyWorklist measures the fraction of clock cycles during which the work
// list is empty (Table I).
func EmptyWorklist(benches []string, coreCounts []int, o Options) ([]EmptyRow, error) {
	o = o.norm()
	rows := make([]EmptyRow, 0, len(benches))
	for _, b := range benches {
		res, err := core.SweepCores(b, coreCounts, o.Scale, o.Seed, o.Base, o.Verify)
		if err != nil {
			return nil, err
		}
		row := EmptyRow{Bench: b, Cores: coreCounts}
		for _, r := range res {
			row.Fraction = append(row.Fraction, r.Stats.EmptyWorklistFraction())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// StallRow is one benchmark's line of Table II: the mean per-core stall
// cycles per collection cycle at a fixed core count.
type StallRow struct {
	Bench string
	Total int64
	Mean  machine.CoreStats
}

// StallBreakdown measures the clock-cycle distribution of Table II.
func StallBreakdown(benches []string, cores int, o Options) ([]StallRow, error) {
	o = o.norm()
	cfg := o.Base
	cfg.Cores = cores
	rows := make([]StallRow, 0, len(benches))
	for _, b := range benches {
		r, err := core.RunBenchmark(b, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StallRow{Bench: b, Total: r.Stats.Cycles, Mean: r.Stats.Mean()})
	}
	return rows, nil
}

// FIFOPoint is one measurement of the header-FIFO capacity ablation.
type FIFOPoint struct {
	Capacity      int
	Cycles        int64
	ScanLockStall int64 // mean per core
	FIFODrops     int64
	FIFOMaxDepth  int
}

// FIFOSweep runs one benchmark at a fixed core count across header-FIFO
// capacities (ablation A1: the paper attributes cup's scan-lock stalls to
// FIFO overflow prolonging the scan critical section).
func FIFOSweep(bench string, capacities []int, cores int, o Options) ([]FIFOPoint, error) {
	o = o.norm()
	out := make([]FIFOPoint, 0, len(capacities))
	for _, capn := range capacities {
		cfg := o.Base
		cfg.Cores = cores
		if capn <= 0 {
			cfg.DisableFIFO = true
			cfg.FIFOCapacity = 1
		} else {
			cfg.FIFOCapacity = capn
		}
		r, err := core.RunBenchmark(bench, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		out = append(out, FIFOPoint{
			Capacity:      capn,
			Cycles:        r.Stats.Cycles,
			ScanLockStall: r.Stats.Mean().ScanLockStall,
			FIFODrops:     r.Stats.FIFODrops,
			FIFOMaxDepth:  r.Stats.FIFOMaxDepth,
		})
	}
	return out, nil
}

// MarkOptRow compares a benchmark with and without the unlocked mark-read
// optimization proposed in the paper's Section VI-B (ablation A2).
type MarkOptRow struct {
	Bench                 string
	CyclesOff, CyclesOn   int64
	HdrLockOff, HdrLockOn int64 // mean per-core header-lock stalls
}

// MarkOpt measures the effect of OptUnlockedMarkRead.
func MarkOpt(benches []string, cores int, o Options) ([]MarkOptRow, error) {
	o = o.norm()
	rows := make([]MarkOptRow, 0, len(benches))
	for _, b := range benches {
		cfg := o.Base
		cfg.Cores = cores
		off, err := core.RunBenchmark(b, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		cfg.OptUnlockedMarkRead = true
		on, err := core.RunBenchmark(b, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MarkOptRow{
			Bench:      b,
			CyclesOff:  off.Stats.Cycles,
			CyclesOn:   on.Stats.Cycles,
			HdrLockOff: off.Stats.Mean().HeaderLockStall,
			HdrLockOn:  on.Stats.Mean().HeaderLockStall,
		})
	}
	return rows, nil
}

// BandwidthPoint is one measurement of the memory-bandwidth ablation.
type BandwidthPoint struct {
	Bandwidth int
	Speedup16 float64 // 16-core speedup over 1 core at this bandwidth
}

// BandwidthSweep measures the 16-core speedup as a function of memory
// bandwidth (ablation A3: the paper names memory bandwidth as the second
// scalability limiter).
func BandwidthSweep(bench string, bandwidths []int, o Options) ([]BandwidthPoint, error) {
	o = o.norm()
	out := make([]BandwidthPoint, 0, len(bandwidths))
	for _, bw := range bandwidths {
		cfg := o.Base
		cfg.MemBandwidth = bw
		res, err := core.SweepCores(bench, []int{1, 16}, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{
			Bandwidth: bw,
			Speedup16: stats.Speedup(res[0].Stats.Cycles, res[1].Stats.Cycles),
		})
	}
	return out, nil
}

// Benches returns the benchmark list in the paper's table order.
func Benches() []string {
	return []string{"compress", "cup", "db", "javac", "javacc", "jflex", "jlisp", "search"}
}

// Fig5Config returns the base configuration of Figure 5 (prototype memory).
func Fig5Config() core.Config { return core.Config{} }

// Fig6Config returns the base configuration of Figure 6: an artificial 20
// clock cycles added to each memory access.
func Fig6Config() core.Config { return core.Config{ExtraMemLatency: 20} }

// FormatScaling renders scaling rows as a table.
func FormatScaling(title string, rows []ScalingRow) *stats.Table {
	if len(rows) == 0 {
		return stats.NewTable(title)
	}
	hdr := []string{"Application"}
	for _, c := range rows[0].Cores {
		hdr = append(hdr, fmt.Sprintf("%d cores", c))
	}
	t := stats.NewTable(title, hdr...)
	for _, r := range rows {
		cells := []string{r.Bench}
		for _, s := range r.Speedup {
			cells = append(cells, fmt.Sprintf("%.2f", s))
		}
		t.Add(cells...)
	}
	return t
}

// StridePoint is one measurement of the sub-object granularity extension.
type StridePoint struct {
	StrideWords int // 0 = object granularity
	Cores       []int
	Speedup     []float64
}

// StrideSweep measures the Section VII extension "distribute work at a finer
// granularity than object-level granularity" on the blob workload, whose
// object-level parallelism is bounded by its object count.
func StrideSweep(bench string, strides []int, coreCounts []int, o Options) ([]StridePoint, error) {
	o = o.norm()
	out := make([]StridePoint, 0, len(strides))
	for _, sw := range strides {
		cfg := o.Base
		cfg.StrideWords = sw
		res, err := core.SweepCores(bench, coreCounts, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		pt := StridePoint{StrideWords: sw, Cores: coreCounts}
		base := res[0].Stats.Cycles
		for _, r := range res {
			pt.Speedup = append(pt.Speedup, stats.Speedup(base, r.Stats.Cycles))
		}
		out = append(out, pt)
	}
	return out, nil
}

// HeaderCacheRow compares a benchmark with and without the Section VII
// header cache extension.
type HeaderCacheRow struct {
	Bench                   string
	CyclesOff, CyclesOn     int64
	HitRate                 float64 // cache hits / (hits+misses)
	HdrLoadsOff, HdrLoadsOn int64   // header loads reaching memory
}

// HeaderCache measures the effect of an on-chip header cache of the given
// size at a fixed core count.
func HeaderCache(benches []string, lines, cores int, o Options) ([]HeaderCacheRow, error) {
	o = o.norm()
	rows := make([]HeaderCacheRow, 0, len(benches))
	for _, b := range benches {
		cfg := o.Base
		cfg.Cores = cores
		off, err := core.RunBenchmark(b, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		cfg.HeaderCacheLines = lines
		on, err := core.RunBenchmark(b, o.Scale, o.Seed, cfg, o.Verify)
		if err != nil {
			return nil, err
		}
		hitRate := 0.0
		if t := on.Stats.HeaderCacheHits + on.Stats.HeaderCacheMisses; t > 0 {
			hitRate = float64(on.Stats.HeaderCacheHits) / float64(t)
		}
		rows = append(rows, HeaderCacheRow{
			Bench:       b,
			CyclesOff:   off.Stats.Cycles,
			CyclesOn:    on.Stats.Cycles,
			HitRate:     hitRate,
			HdrLoadsOff: off.Stats.Mem.Accepted[0],
			HdrLoadsOn:  on.Stats.Mem.Accepted[0],
		})
	}
	return rows, nil
}

// HeapSizePoint is one measurement of the heap-size sweep.
type HeapSizePoint struct {
	Headroom  float64 // semispace size relative to the live set
	Cycles16  int64
	Speedup16 float64
}

// HeapSizeSweep checks the paper's Section VI-B remark that "the heap size
// had little to no influence on the measurement results regarding
// synchronization overhead and scalability" (which justified dimensioning
// the heap at twice the minimal size): a copying collector's cost is
// proportional to the live set, not the heap.
func HeapSizeSweep(bench string, headrooms []float64, o Options) ([]HeapSizePoint, error) {
	o = o.norm()
	spec, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	out := make([]HeapSizePoint, 0, len(headrooms))
	for _, hr := range headrooms {
		var cycles [2]int64
		for i, cores := range []int{1, 16} {
			cfg := o.Base
			cfg.Cores = cores
			plan := spec.Plan(o.Scale, o.Seed)
			h, err := plan.BuildHeap(hr)
			if err != nil {
				return nil, err
			}
			st, err := core.CollectOnce(h, cfg, o.Verify)
			if err != nil {
				return nil, err
			}
			cycles[i] = st.Cycles
		}
		out = append(out, HeapSizePoint{
			Headroom:  hr,
			Cycles16:  cycles[1],
			Speedup16: stats.Speedup(cycles[0], cycles[1]),
		})
	}
	return out, nil
}

// PausePoint summarizes the GC pauses of a multi-collection mutator run at
// one coprocessor size.
type PausePoint struct {
	Cores       int
	Collections int
	MeanPause   int64 // clock cycles
	MaxPause    int64
	TotalGC     int64
}

// Pauses runs an identical randomized allocate/mutate/drop workload (the
// mutator churn driver) against coprocessors of different sizes and reports
// the pause-time statistics. This is the paper's motivation viewed from the
// application: the collector runs stop-the-world, so cutting the GC cycle
// by N× cuts every pause by N×.
func Pauses(coreCounts []int, semiWords, ops int, o Options) ([]PausePoint, error) {
	o = o.norm()
	out := make([]PausePoint, 0, len(coreCounts))
	for _, n := range coreCounts {
		cfg := o.Base
		cfg.Cores = n
		mu, err := mutator.New(semiWords, cfg)
		if err != nil {
			return nil, err
		}
		mu.Verify = o.Verify
		if _, err := mu.RunChurn(mutator.ChurnConfig{Ops: ops, RootSlots: 64, MaxPi: 4, MaxDelta: 12, Seed: o.Seed}); err != nil {
			return nil, err
		}
		pt := PausePoint{Cores: n, Collections: len(mu.Collections())}
		for _, st := range mu.Collections() {
			pt.TotalGC += st.Cycles
			if st.Cycles > pt.MaxPause {
				pt.MaxPause = st.Cycles
			}
		}
		if pt.Collections > 0 {
			pt.MeanPause = pt.TotalGC / int64(pt.Collections)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ScaleRobustness re-runs the core-scaling measurement at growing workload
// sizes and reports the 16-core speedup for each, checking that the
// conclusions do not depend on the (arbitrary) workload dimensioning.
func ScaleRobustness(bench string, scales []int, o Options) ([]BandwidthPoint, error) {
	o = o.norm()
	out := make([]BandwidthPoint, 0, len(scales))
	for _, sc := range scales {
		oo := o
		oo.Scale = sc
		res, err := core.SweepCores(bench, []int{1, 16}, oo.Scale, oo.Seed, oo.Base, oo.Verify)
		if err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{
			Bandwidth: sc, // reused field: the swept parameter
			Speedup16: stats.Speedup(res[0].Stats.Cycles, res[1].Stats.Cycles),
		})
	}
	return out, nil
}

// ConcurrentRow compares a stop-the-world collection with a concurrent one
// on the same heap.
type ConcurrentRow struct {
	Bench        string
	STWPause     int64 // cycles of the stop-the-world collection
	ConcCycles   int64 // cycles of the concurrent collection
	MutOps       int64 // mutator operations completed during it
	MutAllocs    int64
	MaxOpLatency int64 // worst single mutator operation — the pause analogue
	BarrierPct   float64
}

// Concurrent runs the Section V-B extension: the same collection once
// stop-the-world and once with a churning mutator on the coprocessor's
// mutator port, reporting the worst mutator stall against the STW pause.
func Concurrent(benches []string, cores, period int, o Options) ([]ConcurrentRow, error) {
	o = o.norm()
	rows := make([]ConcurrentRow, 0, len(benches))
	for _, b := range benches {
		spec, err := workload.Get(b)
		if err != nil {
			return nil, err
		}
		cfg := o.Base
		cfg.Cores = cores

		h1, err := spec.Plan(o.Scale, o.Seed).BuildHeap(3.0)
		if err != nil {
			return nil, err
		}
		stw, err := core.CollectOnce(h1, cfg, false)
		if err != nil {
			return nil, err
		}

		h2, err := spec.Plan(o.Scale, o.Seed).BuildHeap(3.0)
		if err != nil {
			return nil, err
		}
		m2, err := machine.New(h2, cfg)
		if err != nil {
			return nil, err
		}
		driver := machine.NewConcurrentChurn(h2, o.Seed*31, 1<<40, 500)
		st, ms, err := m2.CollectConcurrent(driver, period)
		if err != nil {
			return nil, err
		}
		barrierPct := 0.0
		if ms.StallCycles > 0 {
			barrierPct = 100 * float64(ms.BarrierStalls) / float64(ms.StallCycles)
		}
		rows = append(rows, ConcurrentRow{
			Bench:        b,
			STWPause:     stw.Cycles,
			ConcCycles:   st.Cycles,
			MutOps:       ms.Ops,
			MutAllocs:    ms.Allocs,
			MaxOpLatency: ms.MaxOpLatency,
			BarrierPct:   barrierPct,
		})
	}
	return rows, nil
}

// SeedStats summarizes a benchmark's 16-core speedup across several
// workload seeds.
type SeedStats struct {
	Bench          string
	Min, Mean, Max float64
}

// SeedRobustness re-measures the 16-core speedup of each benchmark under
// several workload-generation seeds, checking that the reproduction's
// conclusions are properties of the graph *shapes*, not of one particular
// random instance.
func SeedRobustness(benches []string, seeds []int64, o Options) ([]SeedStats, error) {
	o = o.norm()
	out := make([]SeedStats, 0, len(benches))
	for _, b := range benches {
		st := SeedStats{Bench: b, Min: 1e18, Max: -1}
		for _, seed := range seeds {
			res, err := core.SweepCores(b, []int{1, 16}, o.Scale, seed, o.Base, o.Verify)
			if err != nil {
				return nil, err
			}
			s := stats.Speedup(res[0].Stats.Cycles, res[1].Stats.Cycles)
			st.Mean += s
			if s < st.Min {
				st.Min = s
			}
			if s > st.Max {
				st.Max = s
			}
		}
		st.Mean /= float64(len(seeds))
		out = append(out, st)
	}
	return out, nil
}

// BarrierRow is one (benchmark, barrier mode) line of the write-barrier
// comparison: the barrier scenario family's cycle-accurate answer to "what
// does each barrier discipline cost, and how much garbage does it float".
type BarrierRow struct {
	Bench              string
	Mode               string // "none", "satb", "incupdate"
	STWPause           int64  // cycles of the stop-the-world baseline
	Cycles             int64  // cycles of the concurrent collection
	MutOps             int64  // mutator operations completed during it
	BarrierInvocations int64
	BarrierCycles      int64
	FloatingWords      int64 // garbage retained only because the barrier shaded it
	MarkTermCycles     int64 // tail between the last marking work and scan termination
	MaxOpLatency       int64 // worst single mutator operation — the pause analogue
}

// Barriers runs the concurrent-collection scenario family (extension E4):
// each benchmark collected once stop-the-world and once per write-barrier
// mode with the built-in churn mutator on the coprocessor's mutator port,
// comparing barrier cost, floating garbage and mark termination across the
// disciplines.
func Barriers(benches []string, cores int, o Options) ([]BarrierRow, error) {
	o = o.norm()
	var rows []BarrierRow
	for _, b := range benches {
		base := o.Base
		base.Cores = cores
		stw, runs, err := barrierFamily.run(b, o.Scale, o.Seed, base, o.Verify)
		if err != nil {
			return nil, err
		}
		for i, st := range runs {
			ms := st.Mutator
			rows = append(rows, BarrierRow{
				Bench:              b,
				Mode:               barrierFamily.modes[i],
				STWPause:           stw.Cycles,
				Cycles:             st.Cycles,
				MutOps:             ms.Ops,
				BarrierInvocations: ms.BarrierInvocations,
				BarrierCycles:      ms.BarrierCycles,
				FloatingWords:      ms.FloatingWords,
				MarkTermCycles:     ms.MarkTermCycles,
				MaxOpLatency:       ms.MaxOpLatency,
			})
		}
	}
	return rows, nil
}

// NUMARow is one (benchmark, core count, placement mode) line of the
// locality comparison: the NUMA scenario family's answer to "how much of
// the collector's DRAM traffic crosses a domain boundary, and what does
// locality-aware tospace placement buy back".
type NUMARow struct {
	Bench           string
	Cores           int
	Mode            string // "flat", "naive", "local"
	Cycles          int64
	FlatCycles      int64   // uniform-memory baseline at the same core count
	LocalAccesses   int64   // DRAM acceptances served by the requester's domain
	RemoteAccesses  int64   // DRAM acceptances that crossed a domain boundary
	RemoteFraction  float64 // RemoteAccesses / (Local + Remote)
	DomainConflicts int64   // acceptances deferred by an exhausted domain budget
}

// Slowdown is the cycle cost of the NUMA penalties relative to the flat
// baseline at the same core count (1.0 for the baseline itself).
func (r NUMARow) Slowdown() float64 {
	if r.FlatCycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.FlatCycles)
}

// NUMA runs the locality scenario family (extension E5): each benchmark
// collected at each core count on the flat machine and on a NUMA machine
// under naive and locality-aware tospace placement, comparing remote-access
// fractions and cycle counts. Rows are grouped by benchmark, then core
// count, then flat, naive, local.
func NUMA(benches []string, coreCounts []int, o Options) ([]NUMARow, error) {
	o = o.norm()
	var rows []NUMARow
	for _, b := range benches {
		for _, cores := range coreCounts {
			base := o.Base
			base.Cores = cores
			flat, runs, err := numaFamily.run(b, o.Scale, o.Seed, base, o.Verify)
			if err != nil {
				return nil, err
			}
			for i, st := range runs {
				rows = append(rows, NUMARow{
					Bench:           b,
					Cores:           cores,
					Mode:            numaFamily.modes[i],
					Cycles:          st.Cycles,
					FlatCycles:      flat.Cycles,
					LocalAccesses:   st.Mem.LocalAccesses,
					RemoteAccesses:  st.Mem.RemoteAccesses,
					RemoteFraction:  remoteFraction(st),
					DomainConflicts: st.Mem.DomainConflicts,
				})
			}
		}
	}
	return rows, nil
}
