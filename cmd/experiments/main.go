// Command experiments regenerates every table and figure of the paper's
// evaluation section from the simulator, printing measured values next to
// the paper's published numbers, plus the ablations discussed in the paper.
//
// Usage:
//
//	experiments [flags] <fig5|fig6|tab1|tab2|fifo|markopt|bandwidth|numa|baselines|all>
//
// Flags:
//
//	-scale N    workload scale factor (default 1)
//	-seed N     workload seed (default 42)
//	-verify     verify every collection against the oracle (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"hwgc"
	"hwgc/internal/baseline"
	"hwgc/internal/experiments"
	"hwgc/internal/stats"
)

var (
	scale    = flag.Int("scale", 1, "workload scale factor")
	seed     = flag.Int64("seed", 42, "workload seed")
	verify   = flag.Bool("verify", false, "verify every collection against the oracle")
	markdown = flag.Bool("markdown", false, "emit a self-contained markdown report instead of tables")
)

func main() {
	flag.Parse()
	if *markdown {
		if err := experiments.WriteReport(os.Stdout, opts(experiments.Fig5Config())); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	cmds := flag.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	for _, cmd := range cmds {
		if err := run(cmd); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func opts(base hwgc.Config) experiments.Options {
	return experiments.Options{Scale: *scale, Seed: *seed, Verify: *verify, Base: base}
}

func run(cmd string) error {
	switch cmd {
	case "fig5":
		return fig(5, experiments.Fig5Config())
	case "fig6":
		return fig(6, experiments.Fig6Config())
	case "tab1":
		return tab1()
	case "tab2":
		return tab2()
	case "fifo":
		return fifo()
	case "markopt":
		return markopt()
	case "bandwidth":
		return bandwidth()
	case "baselines":
		return baselines()
	case "stride":
		return strideCmd()
	case "hdrcache":
		return hdrcache()
	case "heapsize":
		return heapsize()
	case "pauses":
		return pauses()
	case "robustness":
		return robustness()
	case "concurrent":
		return concurrent()
	case "barriers":
		return barriers()
	case "numa":
		return numa()
	case "seeds":
		return seeds()
	case "all":
		for _, c := range []string{"fig5", "fig6", "tab1", "tab2", "fifo", "markopt", "bandwidth", "stride", "hdrcache", "heapsize", "pauses", "robustness", "seeds", "concurrent", "barriers", "numa", "baselines"} {
			if err := run(c); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (have fig5 fig6 tab1 tab2 fifo markopt bandwidth stride hdrcache heapsize pauses robustness seeds concurrent barriers numa baselines all)", cmd)
	}
}

func fig(n int, base hwgc.Config) error {
	rows, err := experiments.Scaling(experiments.Benches(), experiments.PaperCoreCounts, opts(base))
	if err != nil {
		return err
	}
	title := "Figure 5: GC speedup vs. number of cores (baseline: 1 core)"
	if n == 6 {
		title = "Figure 6: GC speedup with +20 cycles memory latency (baseline: 1 core, +20)"
	}
	t := experiments.FormatScaling(title, rows)
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	var max8, max16 float64
	for _, r := range rows {
		if s := r.Speedup[3]; s > max8 {
			max8 = s
		}
		if s := r.Speedup[4]; s > max16 {
			max16 = s
		}
	}
	fmt.Printf("max speedup: %.2f at 8 cores, %.2f at 16 cores", max8, max16)
	if n == 5 {
		fmt.Printf("   (paper: up to %.1f and %.1f)", experiments.PaperMaxSpeedup8, experiments.PaperMaxSpeedup16)
	}
	fmt.Println()
	return nil
}

func tab1() error {
	rows, err := experiments.EmptyWorklist(experiments.Benches(), experiments.PaperCoreCounts, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Table I: fraction of clock cycles during which the work list is empty (measured | paper)",
		"Application", "1 core", "2 cores", "4 cores", "8 cores", "16 cores")
	for _, r := range rows {
		paper := experiments.PaperTable1[r.Bench]
		cells := []string{r.Bench}
		for i, f := range r.Fraction {
			cells = append(cells, fmt.Sprintf("%.2f%% | %.2f%%", 100*f, paper[i]))
		}
		t.Add(cells...)
	}
	return t.Write(os.Stdout)
}

func tab2() error {
	rows, err := experiments.StallBreakdown(experiments.Benches(), 16, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Table II: clock cycle distribution for 16 cores (mean per core; measured, with paper's % in brackets)",
		"Application", "Total", "Scan-lock", "Free-lock", "Header-lock",
		"Body load", "Body store", "Header load", "Header store")
	for _, r := range rows {
		p := experiments.PaperTable2[r.Bench]
		cell := func(v, pv int64) string {
			return fmt.Sprintf("%s [%s]", stats.CyclesAndPercent(v, r.Total), stats.Percent(pv, p.Total))
		}
		t.Add(r.Bench, fmt.Sprint(r.Total),
			cell(r.Mean.ScanLockStall, p.ScanLock),
			cell(r.Mean.FreeLockStall, p.FreeLock),
			cell(r.Mean.HeaderLockStall, p.HeaderLock),
			cell(r.Mean.BodyLoadStall, p.BodyLoad),
			cell(r.Mean.BodyStoreStall, p.BodyStore),
			cell(r.Mean.HeaderLoadStall, p.HeaderLoad),
			cell(r.Mean.HeaderStoreStall, p.HeaderStore),
		)
	}
	return t.Write(os.Stdout)
}

func fifo() error {
	caps := []int{0, 1024, 4096, 16384, 32768, 65536, 131072}
	pts, err := experiments.FIFOSweep("cup", caps, 16, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Ablation A1: header FIFO capacity on cup, 16 cores (overflow prolongs the scan critical section)",
		"FIFO capacity", "Cycles", "Scan-lock stall/core", "Drops", "Max depth")
	for _, p := range pts {
		capS := fmt.Sprint(p.Capacity)
		if p.Capacity <= 0 {
			capS = "disabled"
		}
		t.Add(capS, fmt.Sprint(p.Cycles), fmt.Sprint(p.ScanLockStall), fmt.Sprint(p.FIFODrops), fmt.Sprint(p.FIFOMaxDepth))
	}
	return t.Write(os.Stdout)
}

func markopt() error {
	rows, err := experiments.MarkOpt(experiments.Benches(), 16, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Ablation A2: unlocked mark-read optimization (paper §VI-B proposal for javac), 16 cores",
		"Application", "Cycles (off)", "Cycles (on)", "Gain", "Hdr-lock stall/core (off)", "(on)")
	for _, r := range rows {
		t.Add(r.Bench,
			fmt.Sprint(r.CyclesOff), fmt.Sprint(r.CyclesOn),
			fmt.Sprintf("%.2fx", float64(r.CyclesOff)/float64(r.CyclesOn)),
			fmt.Sprint(r.HdrLockOff), fmt.Sprint(r.HdrLockOn))
	}
	return t.Write(os.Stdout)
}

func bandwidth() error {
	pts, err := experiments.BandwidthSweep("db", []int{2, 3, 4, 6, 8, 12, 16}, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Ablation A3: 16-core speedup vs. memory bandwidth on db (bandwidth is the second scalability limiter, §VII)",
		"Bandwidth (req/cycle)", "16-core speedup")
	for _, p := range pts {
		t.Add(fmt.Sprint(p.Bandwidth), fmt.Sprintf("%.2f", p.Speedup16))
	}
	return t.Write(os.Stdout)
}

func strideCmd() error {
	pts, err := experiments.StrideSweep("blob", []int{0, 16, 64, 256}, []int{1, 2, 4, 8, 16}, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Extension E1 (paper §VII): sub-object (stride) work distribution on blob — speedup vs cores",
		"Stride (words)", "1", "2", "4", "8", "16")
	for _, p := range pts {
		sw := fmt.Sprint(p.StrideWords)
		if p.StrideWords == 0 {
			sw = "objects"
		}
		cells := []string{sw}
		for _, s := range p.Speedup {
			cells = append(cells, fmt.Sprintf("%.2f", s))
		}
		t.Add(cells...)
	}
	return t.Write(os.Stdout)
}

func hdrcache() error {
	rows, err := experiments.HeaderCache(experiments.Benches(), 4096, 16, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Extension E2 (paper §VII): 4096-line header cache, 16 cores",
		"Application", "Cycles (off)", "Cycles (on)", "Gain", "Hit rate", "Hdr loads to mem (off)", "(on)")
	for _, r := range rows {
		t.Add(r.Bench,
			fmt.Sprint(r.CyclesOff), fmt.Sprint(r.CyclesOn),
			fmt.Sprintf("%.2fx", float64(r.CyclesOff)/float64(r.CyclesOn)),
			fmt.Sprintf("%.1f%%", 100*r.HitRate),
			fmt.Sprint(r.HdrLoadsOff), fmt.Sprint(r.HdrLoadsOn))
	}
	return t.Write(os.Stdout)
}

func heapsize() error {
	pts, err := experiments.HeapSizeSweep("db", []float64{1.2, 1.5, 2.0, 4.0, 8.0}, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Heap-size sweep on db (paper §VI-B: heap size has little influence; copying cost tracks the live set)",
		"Semispace / live set", "16-core cycles", "16-core speedup")
	for _, p := range pts {
		t.Add(fmt.Sprintf("%.1fx", p.Headroom), fmt.Sprint(p.Cycles16), fmt.Sprintf("%.2f", p.Speedup16))
	}
	return t.Write(os.Stdout)
}

func pauses() error {
	pts, err := experiments.Pauses([]int{1, 2, 4, 8, 16}, 96*1024, 120000, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"GC pauses under a churning mutator (stop-the-world; identical allocation sequence per row)",
		"Cores", "Collections", "Mean pause (cycles)", "Max pause (cycles)", "Total GC cycles")
	for _, p := range pts {
		t.Add(fmt.Sprint(p.Cores), fmt.Sprint(p.Collections),
			fmt.Sprint(p.MeanPause), fmt.Sprint(p.MaxPause), fmt.Sprint(p.TotalGC))
	}
	return t.Write(os.Stdout)
}

func robustness() error {
	pts, err := experiments.ScaleRobustness("db", []int{1, 2, 4}, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Scale robustness: 16-core speedup on db at growing workload sizes (conclusions are size-independent)",
		"Workload scale", "16-core speedup")
	for _, p := range pts {
		t.Add(fmt.Sprint(p.Bandwidth), fmt.Sprintf("%.2f", p.Speedup16))
	}
	return t.Write(os.Stdout)
}

func seeds() error {
	rows, err := experiments.SeedRobustness(experiments.Benches(), []int64{42, 7, 1234, 99, 31337}, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Seed robustness: 16-core speedup across five workload seeds (conclusions are shape properties)",
		"Application", "Min", "Mean", "Max")
	for _, r := range rows {
		t.Add(r.Bench, fmt.Sprintf("%.2f", r.Min), fmt.Sprintf("%.2f", r.Mean), fmt.Sprintf("%.2f", r.Max))
	}
	return t.Write(os.Stdout)
}

func concurrent() error {
	rows, err := experiments.Concurrent([]string{"jlisp", "javac", "jflex", "db"}, 8, 2, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Extension E3 (paper §V-B outlook): concurrent collection, 8 cores, wait-until-black barrier",
		"Application", "STW pause", "Concurrent GC cycles", "Mutator ops", "Allocs", "Worst mutator op", "Barrier share")
	for _, r := range rows {
		t.Add(r.Bench, fmt.Sprint(r.STWPause), fmt.Sprint(r.ConcCycles),
			fmt.Sprint(r.MutOps), fmt.Sprint(r.MutAllocs),
			fmt.Sprintf("%d cycles", r.MaxOpLatency), fmt.Sprintf("%.0f%%", r.BarrierPct))
	}
	return t.Write(os.Stdout)
}

func barriers() error {
	rows, err := experiments.Barriers([]string{"jlisp", "javac", "jflex", "db"}, 8, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Extension E4: write-barrier comparison, 8 cores, built-in churn mutator on the mutator port",
		"Application", "Barrier", "STW pause", "Concurrent GC cycles", "Invocations", "Barrier cycles", "Floating words", "Mark term.", "Worst mutator op")
	for _, r := range rows {
		t.Add(r.Bench, r.Mode, fmt.Sprint(r.STWPause), fmt.Sprint(r.Cycles),
			fmt.Sprint(r.BarrierInvocations), fmt.Sprint(r.BarrierCycles),
			fmt.Sprint(r.FloatingWords), fmt.Sprint(r.MarkTermCycles),
			fmt.Sprintf("%d cycles", r.MaxOpLatency))
	}
	return t.Write(os.Stdout)
}

func numa() error {
	rows, err := experiments.NUMA([]string{"jlisp", "db"}, experiments.PaperCoreCounts, opts(experiments.Fig5Config()))
	if err != nil {
		return err
	}
	t := stats.NewTable(
		"Extension E5: NUMA locality, 4 domains, naive vs locality-aware tospace placement",
		"Application", "Cores", "Placement", "GC cycles", "Slowdown vs flat", "Local", "Remote", "Remote frac")
	for _, r := range rows {
		slow, frac := "-", "-"
		if r.Mode != "flat" {
			slow = fmt.Sprintf("%.3f", r.Slowdown())
			frac = fmt.Sprintf("%.1f%%", 100*r.RemoteFraction)
		}
		t.Add(r.Bench, fmt.Sprint(r.Cores), r.Mode, fmt.Sprint(r.Cycles), slow,
			fmt.Sprint(r.LocalAccesses), fmt.Sprint(r.RemoteAccesses), frac)
	}
	return t.Write(os.Stdout)
}

func baselines() error {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	t := stats.NewTable(
		fmt.Sprintf("Ablation A4: software-parallel baseline collectors (%d goroutines) vs. reference, on db", workers),
		"Collector", "Wall time", "Sync ops/object", "CAS retries", "Wasted words", "Notes")
	for _, name := range baseline.Names() {
		c, err := baseline.ByName(name)
		if err != nil {
			return err
		}
		h, err := hwgc.BuildWorkload("db", *scale, *seed)
		if err != nil {
			return err
		}
		before, err := hwgc.Snapshot(h)
		if err != nil {
			return err
		}
		res, err := c.Collect(h, workers)
		if err != nil {
			return err
		}
		if err := hwgc.VerifyPreserved(before, h); err != nil {
			return fmt.Errorf("%s corrupted the heap: %w", name, err)
		}
		perObj := float64(res.Sync.Total()) / float64(res.LiveObjects)
		t.Add(name, res.Elapsed.String(), fmt.Sprintf("%.1f", perObj),
			fmt.Sprint(res.Sync.CASRetries), fmt.Sprint(res.WastedWords), c.Description())
	}
	return t.Write(os.Stdout)
}
