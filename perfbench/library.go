package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"hwgc"
	"hwgc/internal/core"
	"hwgc/internal/experiments"
	"hwgc/internal/gcalgo"
	"hwgc/internal/machine"
	"hwgc/internal/snapshot"
	"hwgc/internal/workload"
)

// pinSet holds the pinned outputs of the library workloads.
type pinSet struct {
	// Digests maps "<workload>/<size>/<seed>" to one digest per point of a
	// pass, in pass order.
	Digests map[string][]string `json:"digests"`
	// Fig56Cycles are the gc-clock-cycles of the full paper-sweep at seed
	// 42, named as BENCH_4.json names the BenchmarkFig5/BenchmarkFig6 rows.
	Fig56Cycles map[string]int64 `json:"fig56_cycles"`
}

//go:embed pins.json
var embeddedPins []byte

func loadPins() (*pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(embeddedPins, &p); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	return &p, nil
}

// writePins runs one pass of each library workload, full and smoke size,
// at the recording seed and the held-out seed, and writes their digests.
func writePins(path string) error {
	p := &pinSet{Digests: map[string][]string{}, Fig56Cycles: map[string]int64{}}
	for _, smoke := range []bool{false, true} {
		for _, seed := range []int64{42, HeldOutSeed} {
			o := options{seed: seed, smoke: smoke, pins: &pinSet{}}
			ps, h, t := newPaperSweep(o), newHierarchy(o), newTally()
			for _, w := range []runner{ps, h} {
				if err := w.prepare(); err != nil {
					return err
				}
				if err := w.setUp(); err != nil {
					return err
				}
				if err := w.pass(nil, t, 0); err != nil {
					return err
				}
			}
			if t.failed > 0 {
				return fmt.Errorf("record pins: %d collections failed", t.failed)
			}
			p.Digests[pinKey("paper-sweep", smoke, seed)] = ps.digests
			p.Digests[pinKey("hierarchy-ckpt", smoke, seed)] = h.digests
			if seed == 42 && !smoke {
				for i, pt := range ps.points {
					p.Fig56Cycles[pt.name] = ps.cycles[i]
				}
			}
		}
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func pinKey(workload string, smoke bool, seed int64) string {
	size := "full"
	if smoke {
		size = "smoke"
	}
	return fmt.Sprintf("%s/%s/%d", workload, size, seed)
}

// digest is the pinned fingerprint of one collection's Stats.
func digest(st *hwgc.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err) // Stats holds only plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkPoint compares the digest of point i against the pin, if any.
func checkPoint(pinned []string, i int, got string) error {
	if pinned != nil && (i >= len(pinned) || pinned[i] != got) {
		return fmt.Errorf("point %d: Stats digest %s does not match the pinned one", i, got)
	}
	return nil
}

// sweepPoint is one collection of the paper-sweep pass.
type sweepPoint struct {
	name  string // BENCH_4.json row name
	bench string
	lat   int
	cores int
}

// paperSweep is Fig. 5 and Fig. 6: SweepCores over every paper benchmark
// at PaperCoreCounts, flat default config, ExtraMemLatency 0 and 20, scale
// 1, verified against the oracle. It calls SweepCores once per point, so
// latency is per collection.
type paperSweep struct {
	o       options
	benches []string
	points  []sweepPoint
	pinned  []string
	digests []string // of the last pass
	cycles  []int64  // of the last pass
}

func newPaperSweep(o options) *paperSweep {
	w := &paperSweep{o: o, benches: experiments.Benches()}
	if o.smoke {
		w.benches = []string{"jlisp"}
	}
	w.pinned = o.pins.Digests[pinKey("paper-sweep", o.smoke, o.seed)]
	return w
}

func (w *paperSweep) prepare() error { return nil }

// setUp generates the point list and warms up with one sweep of the
// smallest benchmark.
func (w *paperSweep) setUp() error {
	w.points = w.points[:0]
	for _, lat := range []int{0, 20} {
		for _, b := range w.benches {
			for _, n := range hwgc.PaperCoreCounts {
				fig := 5
				if lat > 0 {
					fig = 6
				}
				w.points = append(w.points, sweepPoint{fmt.Sprintf("BenchmarkFig%d/%s/cores=%d", fig, b, n), b, lat, n})
			}
		}
	}
	_, err := hwgc.SweepCores("jlisp", hwgc.PaperCoreCounts, 1, w.o.seed, hwgc.Config{}, true)
	return err
}

func (w *paperSweep) pass(rec *recorder, t *tally, p int) error {
	w.digests = make([]string, 0, len(w.points))
	w.cycles = make([]int64, 0, len(w.points))
	var sc simCounts
	fig5 := map[string][]hwgc.Stats{}
	for i, pt := range w.points {
		cfg := hwgc.Config{ExtraMemLatency: pt.lat}
		t0 := time.Now()
		var r hwgc.RunResult
		var err error
		if rec == nil {
			var rs []hwgc.RunResult
			if rs, err = hwgc.SweepCores(pt.bench, []int{pt.cores}, 1, w.o.seed, cfg, true); err == nil {
				r = rs[0]
			}
		} else {
			cfg.Cores = pt.cores
			r, err = tracedRun(rec, &sc, true, -1, int64(i), int64(p), pt.bench, w.o.seed, cfg, true)
		}
		t.latency(time.Since(t0))
		t.attempt(err == nil)
		st := &r.Stats
		d := digest(st)
		w.digests = append(w.digests, d)
		w.cycles = append(w.cycles, st.Cycles)
		if err != nil {
			t.failf("paper-sweep %s: %v", pt.name, err)
		} else if err := checkPoint(w.pinned, i, d); err != nil {
			t.failf("paper-sweep %s: %v", pt.name, err)
		} else if c, ok := w.o.pins.Fig56Cycles[pt.name]; ok && w.o.seed == 42 && !w.o.smoke && c != st.Cycles {
			t.failf("paper-sweep %s: %d gc-clock-cycles, BENCH_4.json pins %d", pt.name, st.Cycles, c)
		}
		if pt.lat == 0 {
			fig5[pt.bench] = append(fig5[pt.bench], *st)
		}
	}
	if rec != nil {
		sc.report(t)
		mae, err16 := accuracy(fig5)
		t.sample("machine.table1_mae_pct", mae)
		t.sample("machine.speedup16_err_pct", err16)
	}
	return nil
}

func (w *paperSweep) check(*recorder, *tally) error { return nil }
func (w *paperSweep) close()                        {}

// accuracy compares the Fig. 5 points of one pass with the paper: the mean
// absolute error of the empty-work-list percentage against Table I (data
// held back from calibration), and the relative error of the best 16-core
// speedup against the paper's 12.1 (the calibration target).
func accuracy(fig5 map[string][]hwgc.Stats) (table1MAE, speedup16Err float64) {
	var sum float64
	var n int
	best := 0.0
	for bench, sts := range fig5 {
		paper, ok := experiments.PaperTable1[bench]
		if !ok || len(sts) != len(paper) {
			continue
		}
		for i := range sts {
			sum += math.Abs(100*sts[i].EmptyWorklistFraction() - paper[i])
			n++
		}
		best = math.Max(best, float64(sts[0].Cycles)/float64(sts[len(sts)-1].Cycles))
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), 100 * math.Abs(best-experiments.PaperMaxSpeedup16) / experiments.PaperMaxSpeedup16
}

// tracedRun is core.RunBenchmark at scale 1, which SweepCores calls once
// per core count, with a span around every layer call: the same calls in
// the same order. It adds the collection's counts to sc, and its
// allocations when meterAllocs is set; they are only meaningful while no
// other goroutine allocates.
func tracedRun(rec *recorder, sc *simCounts, meterAllocs bool, parent int32, op, group int64, bench string, seed int64, cfg hwgc.Config, verify bool) (hwgc.RunResult, error) {
	sp := rec.start("collect", parent, op, group)
	defer rec.stop(sp, "")
	spec, err := workload.Get(bench)
	if err != nil {
		return hwgc.RunResult{}, err
	}
	s := rec.start("workload.plan", sp, op, group)
	plan := spec.Plan(1, seed)
	rec.stop(s, "")
	s = rec.start("heap.build", sp, op, group)
	h, err := plan.BuildHeap(core.DefaultHeadroom)
	rec.stop(s, "")
	if err != nil {
		return hwgc.RunResult{}, err
	}
	var a allocMeter
	a.begin(meterAllocs)
	var before *gcalgo.Graph
	if verify {
		s = rec.start("gcalgo.snapshot", sp, op, group)
		before, err = gcalgo.Snapshot(h)
		rec.stop(s, "")
		if err != nil {
			return hwgc.RunResult{}, err
		}
	}
	gcBytes, _ := a.lap()
	s = rec.start("machine.new", sp, op, group)
	m, err := machine.New(h, cfg)
	rec.stop(s, "")
	if err != nil {
		return hwgc.RunResult{}, err
	}
	s = rec.start("machine.collect", sp, op, group)
	st, err := m.Collect()
	rec.stop(s, "")
	if err != nil {
		return hwgc.RunResult{}, err
	}
	mBytes, mAllocs := a.lap()
	if verify {
		s = rec.start("gcalgo.verify", sp, op, group)
		err = gcalgo.VerifyCollection(before, h)
		rec.stop(s, "")
		if err != nil {
			return hwgc.RunResult{}, err
		}
	}
	vBytes, _ := a.lap()
	sc.addStats(&st)
	sc.addMachine(m)
	sc.heapWords += int64(plan.Words())
	sc.gcalgoBytes += gcBytes + vBytes
	sc.machineBytes += mBytes
	sc.machineAllocs += mAllocs
	liveObj, liveWords := plan.LiveStats()
	return hwgc.RunResult{
		Benchmark:   bench,
		Stats:       st,
		PlanObjects: len(plan.Objs),
		PlanWords:   plan.Words(),
		LiveObjects: liveObj,
		LiveWords:   liveWords,
	}, nil
}

// allocMeter reads the allocation counters between layer calls.
type allocMeter struct {
	on            bool
	bytes, allocs uint64
}

func (a *allocMeter) begin(on bool) {
	a.on = on
	a.lap()
}

// lap returns the bytes and allocations since the previous lap.
func (a *allocMeter) lap() (bytes, allocs uint64) {
	if !a.on {
		return 0, 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes, allocs = ms.TotalAlloc-a.bytes, ms.Mallocs-a.allocs
	a.bytes, a.allocs = ms.TotalAlloc, ms.Mallocs
	return bytes, allocs
}

// simCounts sums the simulated counters of one pass.
type simCounts struct {
	collects                                  int64
	cycles, heapWords, ffJumps, ffSkipped     int64
	empty, stall, barrier                     int64
	memReq, memBusy, orderDelays, bwRejects   int64
	local, remote, l1Hits, l1Misses, mshrFull int64
	syncAcq, syncConf                         int64
	machineAllocs, machineBytes, gcalgoBytes  uint64
	snapshots, snapshotBytes                  int64
}

func (c *simCounts) addStats(st *hwgc.Stats) {
	c.collects++
	c.cycles += st.Cycles
	c.empty += st.EmptyWorklistCycles
	sum := st.Sum()
	c.stall += sum.StallTotal()
	if st.Mutator != nil {
		c.barrier += st.Mutator.BarrierCycles
	}
	m := &st.Mem
	c.memReq += m.TotalRequests
	c.memBusy += m.BusyCycles
	c.orderDelays += m.OrderDelays
	c.bwRejects += m.RejectedByBW
	c.local += m.LocalAccesses
	c.remote += m.RemoteAccesses
	c.l1Hits += m.L1Hits
	c.l1Misses += m.L1Misses
	c.mshrFull += m.MSHRFullStalls
	s := &st.Sync
	c.syncAcq += s.ScanAcquisitions + s.FreeAcquisitions + s.HeaderAcquisitions
	c.syncConf += s.ScanConflicts + s.FreeConflicts + s.HeaderConflicts
}

func (c *simCounts) addMachine(m *machine.Machine) {
	j, s := m.FastForwardStats()
	c.ffJumps += j
	c.ffSkipped += s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report adds the pass's counts to t as one sample each.
func (c *simCounts) report(t *tally) {
	n := max(c.collects, 1)
	for name, v := range map[string]float64{
		"heap.words":                    float64(c.heapWords),
		"machine.sim_cycles":            float64(c.cycles),
		"machine.ff_jumps":              float64(c.ffJumps),
		"machine.ff_skip_ratio":         ratio(c.ffSkipped, c.cycles),
		"machine.empty_worklist_cycles": float64(c.empty),
		"machine.stall_cycles":          float64(c.stall),
		"machine.barrier_cycles":        float64(c.barrier),
		"mem.requests":                  float64(c.memReq),
		"mem.busy_ratio":                ratio(c.memBusy, c.cycles),
		"mem.order_delays":              float64(c.orderDelays),
		"mem.bw_rejects":                float64(c.bwRejects),
		"mem.remote_ratio":              ratio(c.remote, c.local+c.remote),
		"mem.l1_hit_ratio":              ratio(c.l1Hits, c.l1Hits+c.l1Misses),
		"mem.mshr_full_stalls":          float64(c.mshrFull),
		"syncblock.acquisitions":        float64(c.syncAcq),
		"syncblock.conflict_ratio":      ratio(c.syncConf, c.syncAcq+c.syncConf),
	} {
		t.sample(name, v)
	}
	// Allocation counts exist only where they were metered.
	if c.gcalgoBytes > 0 {
		t.sample("gcalgo.alloc_mb", float64(c.gcalgoBytes)/1e6)
	}
	if c.machineAllocs > 0 {
		t.sample("machine.allocs_per_collect", float64(c.machineAllocs)/float64(n))
		t.sample("machine.alloc_mb_per_collect", float64(c.machineBytes)/1e6/float64(n))
	}
	if c.snapshots > 0 {
		t.sample("snapshot.count", float64(c.snapshots))
		t.sample("snapshot.bytes", float64(c.snapshotBytes))
	}
}

// hierPoint is one collection of the hierarchy-ckpt pass.
type hierPoint struct {
	name  string
	bench string
	cfg   hwgc.Config
}

// hierarchy runs the non-flat timing models (NUMA, L1/L2 cache, concurrent
// mutator with write barriers) through StartCollection, checkpointing every
// `every` simulated cycles: snapshot, bytes, ResumeCollection, continue.
type hierarchy struct {
	o       options
	every   int64
	points  []hierPoint
	ref     []string // digests of the uninterrupted collections
	pinned  []string
	digests []string // of the last pass
}

func newHierarchy(o options) *hierarchy {
	w := &hierarchy{o: o, every: 100_000}
	benches := []string{"javac", "javacc", "cup"}
	if o.smoke {
		w.every = 1500
		benches = []string{"jlisp"}
	}
	cfgs := []struct {
		name string
		cfg  hwgc.Config
	}{
		{"numa-naive", hwgc.Config{Cores: 8, NUMADomains: 4}},
		{"numa-local", hwgc.Config{Cores: 8, NUMADomains: 4, NUMAPlacement: hwgc.PlacementLocal}},
		{"cache", hwgc.Config{Cores: 8, L1Sets: 16}},
		{"cache-numa", hwgc.Config{Cores: 8, L1Sets: 16, NUMADomains: 4}},
		{"satb", hwgc.Config{Cores: 8, MutatorOps: 1 << 40, BarrierMode: hwgc.BarrierSATB}},
		{"incupdate", hwgc.Config{Cores: 8, MutatorOps: 1 << 40, BarrierMode: hwgc.BarrierIncUpdate}},
	}
	for _, b := range benches {
		for _, c := range cfgs {
			w.points = append(w.points, hierPoint{b + "/" + c.name, b, c.cfg})
		}
	}
	w.pinned = o.pins.Digests[pinKey("hierarchy-ckpt", o.smoke, o.seed)]
	return w
}

// prepare runs every point uninterrupted; a checkpointed finish must match.
func (w *hierarchy) prepare() error {
	w.ref = w.ref[:0]
	for _, pt := range w.points {
		h, err := hwgc.BuildWorkload(pt.bench, 1, w.o.seed)
		if err != nil {
			return err
		}
		st, err := hwgc.Collect(h, pt.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", pt.name, err)
		}
		w.ref = append(w.ref, digest(&st))
	}
	return nil
}

// setUp generates the inputs: every benchmark's plan and heap.
func (w *hierarchy) setUp() error {
	seen := map[string]bool{}
	for _, pt := range w.points {
		if !seen[pt.bench] {
			seen[pt.bench] = true
			if _, err := hwgc.BuildWorkload(pt.bench, 1, w.o.seed); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *hierarchy) pass(rec *recorder, t *tally, p int) error {
	w.digests = make([]string, 0, len(w.points))
	var sc simCounts
	for i, pt := range w.points {
		t0 := time.Now()
		var st hwgc.Stats
		var err error
		if rec == nil {
			st, err = w.checkpointed(pt, &sc)
		} else {
			st, err = w.tracedCheckpointed(rec, &sc, int64(i), int64(p), pt)
		}
		t.latency(time.Since(t0))
		t.attempt(err == nil)
		if err != nil {
			t.failf("hierarchy-ckpt %s: %v", pt.name, err)
			w.digests = append(w.digests, "")
			continue
		}
		d := digest(&st)
		w.digests = append(w.digests, d)
		if i < len(w.ref) && d != w.ref[i] {
			t.failf("hierarchy-ckpt %s: checkpointed Stats differ from the uninterrupted collection", pt.name)
		} else if err := checkPoint(w.pinned, i, d); err != nil {
			t.failf("hierarchy-ckpt %s: %v", pt.name, err)
		}
	}
	if rec != nil {
		sc.report(t)
	}
	return nil
}

// checkpointed is one collection through the public checkpoint API.
func (w *hierarchy) checkpointed(pt hierPoint, sc *simCounts) (hwgc.Stats, error) {
	h, err := hwgc.BuildWorkload(pt.bench, 1, w.o.seed)
	if err != nil {
		return hwgc.Stats{}, err
	}
	col, err := hwgc.StartCollection(h, pt.cfg)
	if err != nil {
		return hwgc.Stats{}, err
	}
	for {
		done, err := col.StepCycles(w.every)
		if err != nil {
			return hwgc.Stats{}, err
		}
		if done {
			break
		}
		snap, err := col.Snapshot()
		if err != nil {
			return hwgc.Stats{}, err
		}
		if col, err = hwgc.ResumeCollection(snap); err != nil {
			return hwgc.Stats{}, err
		}
		sc.snapshots++
		sc.snapshotBytes += int64(len(snap))
	}
	st, err := col.Finish()
	if err != nil {
		return hwgc.Stats{}, err
	}
	return st, col.Heap().CheckIntegrity()
}

// tracedCheckpointed is checkpointed with a span around every layer call,
// the checkpoint split into capture, encode, decode and restore.
func (w *hierarchy) tracedCheckpointed(rec *recorder, sc *simCounts, op, group int64, pt hierPoint) (hwgc.Stats, error) {
	sp := rec.start("collect", -1, op, group)
	defer rec.stop(sp, "")
	spec, err := workload.Get(pt.bench)
	if err != nil {
		return hwgc.Stats{}, err
	}
	s := rec.start("workload.plan", sp, op, group)
	plan := spec.Plan(1, w.o.seed)
	rec.stop(s, "")
	s = rec.start("heap.build", sp, op, group)
	h, err := plan.BuildHeap(core.DefaultHeadroom)
	rec.stop(s, "")
	if err != nil {
		return hwgc.Stats{}, err
	}
	sc.heapWords += int64(plan.Words())
	var a allocMeter
	a.begin(true)
	s = rec.start("machine.new", sp, op, group)
	m, err := machine.New(h, pt.cfg)
	if err == nil {
		m.BeginCollect()
	}
	rec.stop(s, "")
	if err != nil {
		return hwgc.Stats{}, err
	}
	for {
		s = rec.start("machine.collect", sp, op, group)
		done, err := m.StepCycles(w.every)
		rec.stop(s, "")
		if err != nil {
			return hwgc.Stats{}, err
		}
		if done {
			break
		}
		s = rec.start("snapshot.capture", sp, op, group)
		state, err := m.Snapshot()
		rec.stop(s, "")
		if err != nil {
			return hwgc.Stats{}, err
		}
		s = rec.start("snapshot.encode", sp, op, group)
		b := snapshot.Encode(state)
		rec.stop(s, "")
		s = rec.start("snapshot.decode", sp, op, group)
		state, err = snapshot.Decode(b)
		rec.stop(s, "")
		if err != nil {
			return hwgc.Stats{}, err
		}
		s = rec.start("snapshot.restore", sp, op, group)
		m, err = machine.RestoreMachine(state)
		rec.stop(s, "")
		if err != nil {
			return hwgc.Stats{}, err
		}
		sc.snapshots++
		sc.snapshotBytes += int64(len(b))
	}
	s = rec.start("machine.collect", sp, op, group)
	st, err := m.Resume()
	rec.stop(s, "")
	if err != nil {
		return hwgc.Stats{}, err
	}
	mBytes, mAllocs := a.lap()
	sc.machineBytes += mBytes
	sc.machineAllocs += mAllocs
	sc.addStats(&st)
	sc.addMachine(m) // a restored machine carries the fast-forward counts of its predecessors
	return st, m.Heap().CheckIntegrity()
}

func (w *hierarchy) check(*recorder, *tally) error { return nil }
func (w *hierarchy) close()                        {}
