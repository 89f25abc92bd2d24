// Command perfbench is the repository benchmark: it measures the host time
// and memory that users of hwgc wait for, end to end and per layer, over four
// workloads (paper-sweep, serve-cold, serve-hot, hierarchy-ckpt), and checks
// every output it measures. See README.md in this directory.
//
//	go run . --workload paper-sweep --seed 42 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list every
// metric with its unit and sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// HeldOutSeed is the seed, besides the recording seed 42, on which claims
// made with this benchmark must also hold. Both seeds have pinned digests.
const HeldOutSeed = 1009

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"paper-sweep", "serve-cold", "serve-hot", "hierarchy-ckpt"}

// e2eMetrics are the JSON result of an untraced run (--trace 0), in this
// order. Host time is process CPU time, which excludes the time the
// hypervisor steals from the VM; wall-clock figures are in wallMetrics.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// wallMetrics are the wall-clock figures of an untraced run. On a host
// that steals CPU time from the VM they do not repeat within the bounds, so
// they are per-layer metrics (from a traced run's untraced half); an
// untraced run prints them in its table only.
var wallMetrics = []metricDef{
	{"pass_s", "s"},
	{"rps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"host.steal_ratio", "ratio"},
}

// layerMetrics are printed by a traced run (--trace 1). A workload that
// does not call a layer reports 0 for it, with 0 samples.
var layerMetrics = []metricDef{
	{"workload.plan_ms", "ms"},
	{"heap.build_ms", "ms"},
	{"heap.words", "count"},
	{"gcalgo.snapshot_ms", "ms"},
	{"gcalgo.verify_ms", "ms"},
	{"gcalgo.alloc_mb", "MB"},
	{"machine.new_ms", "ms"},
	{"machine.collect_ms", "ms"},
	{"machine.ns_per_cycle", "ns"},
	{"machine.allocs_per_collect", "count"},
	{"machine.alloc_mb_per_collect", "MB"},
	{"machine.sim_cycles", "count"},
	{"machine.ff_jumps", "count"},
	{"machine.ff_skip_ratio", "ratio"},
	{"machine.empty_worklist_cycles", "count"},
	{"machine.stall_cycles", "count"},
	{"machine.barrier_cycles", "count"},
	{"mem.requests", "count"},
	{"mem.busy_ratio", "ratio"},
	{"mem.order_delays", "count"},
	{"mem.bw_rejects", "count"},
	{"mem.remote_ratio", "ratio"},
	{"mem.l1_hit_ratio", "ratio"},
	{"mem.mshr_full_stalls", "count"},
	{"syncblock.acquisitions", "count"},
	{"syncblock.conflict_ratio", "ratio"},
	{"snapshot.capture_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.bytes", "count"},
	{"snapshot.count", "count"},
	{"hwgc.key_us", "us"},
	{"hwgc.encode_us", "us"},
	{"server.handler_hit_ms", "ms"},
	{"server.handler_miss_ms", "ms"},
	{"server.client_ms", "ms"},
	{"server.queue_depth", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"machine.table1_mae_pct", "%"},
	{"machine.speedup16_err_pct", "%"},
	{"pass_s", "s"},
	{"rps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"host.steal_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead_pass_cpu_s", "s"},
	{"trace.overhead_cpu_ms_per_op", "ms"},
	{"trace.overhead_alloc_mb_per_op", "MB"},
	{"trace.overhead_peak_rss_mb", "MB"},
	{"trace.overhead_pass_s", "s"},
	{"trace.overhead_rps", "1/s"},
	{"trace.overhead_lat_p50_ms", "ms"},
	{"trace.overhead_lat_p90_ms", "ms"},
}

// spanMetrics maps a span name to the per-layer metric of its self time.
var spanMetrics = map[string]struct {
	metric string
	scale  float64 // ns per unit
}{
	"workload.plan":       {"workload.plan_ms", 1e6},
	"heap.build":          {"heap.build_ms", 1e6},
	"gcalgo.snapshot":     {"gcalgo.snapshot_ms", 1e6},
	"gcalgo.verify":       {"gcalgo.verify_ms", 1e6},
	"machine.new":         {"machine.new_ms", 1e6},
	"machine.collect":     {"machine.collect_ms", 1e6},
	"snapshot.capture":    {"snapshot.capture_ms", 1e6},
	"snapshot.encode":     {"snapshot.encode_ms", 1e6},
	"snapshot.decode":     {"snapshot.decode_ms", 1e6},
	"snapshot.restore":    {"snapshot.restore_ms", 1e6},
	"hwgc.key":            {"hwgc.key_us", 1e3},
	"hwgc.encode":         {"hwgc.encode_us", 1e3},
	"server.handler_hit":  {"server.handler_hit_ms", 1e6},
	"server.handler_miss": {"server.handler_miss_ms", 1e6},
	"server.client":       {"server.client_ms", 1e6},
}

type metricDef struct{ name, unit string }

// metric is one reported value; n is its sample count, printed in the
// table but not in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	pins     *pinSet
	spans    string
}

// runner runs one workload: one set of inputs the benchmark measures.
type runner interface {
	// setUp generates the inputs from the seed and prepares long-lived
	// state (a started server, a warmed cache). It runs several times;
	// setup_s is the median.
	setUp() error
	// prepare computes the references outputs are checked against. It
	// runs once, after the last set-up, untimed.
	prepare() error
	// pass runs pass number p of the measured work into t; rec is nil
	// when untraced.
	pass(rec *recorder, t *tally, p int) error
	// check runs the checks that need work after the timed window.
	check(rec *recorder, t *tally) error
	close()
}

func newRunner(o options) (runner, error) {
	switch o.workload {
	case "paper-sweep":
		return newPaperSweep(o), nil
	case "hierarchy-ckpt":
		return newHierarchy(o), nil
	case "serve-cold":
		return newServe(o, false), nil
	case "serve-hot":
		return newServe(o, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

func main() {
	var o options
	var trace int
	var recordPins string
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-sweep, serve-cold, serve-hot, hierarchy-ckpt or all")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed; inputs are generated from it")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds of measured work (whole passes; 0 runs one pass)")
	flag.IntVar(&trace, "trace", 0, "1 runs untraced then traced and prints the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs that run every workload in seconds")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
	flag.StringVar(&recordPins, "record-pins", "", "re-record the digests of the library workloads at seeds 42 and the held-out seed into this file, then exit")
	flag.Parse()
	o.trace = trace == 1

	if recordPins != "" {
		if err := writePins(recordPins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.pins = pins
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		o.workload = name
		if _, err := run(o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// run measures one workload and prints its metric table and JSON result.
func run(o options, out io.Writer) (result, error) {
	w, err := newRunner(o)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	// At least minReps set-ups, more while they total under a second, so a
	// cheap set-up gets a steady median too.
	minReps, maxReps := 3, 50
	if o.smoke {
		minReps, maxReps = 2, 2
	}
	var setups []float64
	for total := 0.0; len(setups) < maxReps && (len(setups) < minReps || total < 1); {
		c0 := cpuSeconds()
		if err := w.setUp(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cpuSeconds()-c0)
		total += setups[len(setups)-1]
	}
	if err := w.prepare(); err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}

	setup := metric{median(setups), "s", len(setups)}
	budget := time.Duration(o.seconds) * time.Second
	var res result
	var untraced map[string]metric
	if !o.trace {
		t, err := measure(w, nil, budget)
		if err != nil {
			return result{}, err
		}
		res = t.result()
		untraced = t.endToEnd()
		untraced["setup_s"] = setup
		res.Metrics = map[string]metric{}
		for _, d := range e2eMetrics {
			res.Metrics[d.name] = untraced[d.name]
		}
	} else {
		// Untraced then traced over the same server and inputs, each for
		// half the budget; the difference is the tracing overhead.
		plain, err := measure(w, nil, budget/2)
		if err != nil {
			return result{}, err
		}
		rec := newRecorder()
		traced, err := measure(w, rec, budget/2)
		if err != nil {
			return result{}, err
		}
		spans := rec.snapshot()
		path := o.spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.json", o.workload, o.seed)
		}
		if err := writeSpans(path, spans); err != nil {
			return result{}, err
		}
		untraced = plain.endToEnd()
		untraced["setup_s"] = setup
		res = plain.result()
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Correct = res.Failed == 0
		res.Metrics = layerReport(plain, traced, spans)
	}
	if err := printResult(out, o.workload, res, untraced, o.trace); err != nil {
		return result{}, err
	}
	return res, nil
}

// measure runs whole passes until budget has elapsed (at least one), then
// the post-window checks.
func measure(w runner, rec *recorder, budget time.Duration) (*tally, error) {
	t := newTally()
	// Start from a collected heap returned to the OS, so the phase's peak
	// does not depend on how much set-up memory the scavenger has freed.
	debug.FreeOSMemory()
	stopRSS := sampleRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, steal0 := time.Now(), stealSeconds()
	for p := 0; ; p++ {
		p0, c0 := time.Now(), cpuSeconds()
		if err := w.pass(rec, t, p); err != nil {
			return nil, err
		}
		t.cpuPasses = append(t.cpuPasses, cpuSeconds()-c0)
		t.passes = append(t.passes, time.Since(p0).Seconds())
		if time.Since(start) >= budget {
			break
		}
	}
	t.stealRatio = (stealSeconds() - steal0) / time.Since(start).Seconds() / float64(runtime.NumCPU())
	runtime.ReadMemStats(&m1)
	t.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	t.peakRSS = stopRSS()
	if err := w.check(rec, t); err != nil {
		return nil, err
	}
	return t, nil
}

// tally accumulates one measured phase. Served workloads add to it from
// two client goroutines, hence the lock.
type tally struct {
	mu         sync.Mutex
	passes     []float64 // wall seconds per pass
	cpuPasses  []float64 // process CPU seconds per pass
	stealRatio float64   // share of the host's CPU time the hypervisor stole
	lats       latencies // per operation
	ops        int       // operations completed (collections, 200 responses)
	attempted  int
	failed     int
	allocBytes uint64
	peakRSS    float64
	layer      map[string][]float64 // per-layer samples, one per pass or request
}

func newTally() *tally { return &tally{layer: map[string][]float64{}} }

func (t *tally) latency(d time.Duration) {
	t.mu.Lock()
	t.lats.add(d)
	t.mu.Unlock()
}

// attempt counts one attempted operation, completed or not.
func (t *tally) attempt(completed bool) {
	t.mu.Lock()
	t.attempted++
	if completed {
		t.ops++
	}
	t.mu.Unlock()
}

// failf counts one failed operation; the first reasons go to stderr.
func (t *tally) failf(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	n := t.failed
	t.mu.Unlock()
	if n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (t *tally) sample(name string, v float64) {
	t.mu.Lock()
	t.layer[name] = append(t.layer[name], v)
	t.mu.Unlock()
}

func (t *tally) result() result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
}

// endToEnd returns the end-to-end and the wall-clock metrics of a phase.
func (t *tally) endToEnd() map[string]metric {
	wall, cpu := 0.0, 0.0
	for i := range t.passes {
		wall += t.passes[i]
		cpu += t.cpuPasses[i]
	}
	ops := float64(max(t.ops, 1))
	return map[string]metric{
		"pass_cpu_s":       {median(t.cpuPasses), "s", len(t.cpuPasses)},
		"cpu_ms_per_op":    {cpu * 1e3 / ops, "ms", t.ops},
		"alloc_mb_per_op":  {float64(t.allocBytes) / 1e6 / ops, "MB", t.ops},
		"peak_rss_mb":      {t.peakRSS, "MB", 1},
		"pass_s":           {median(t.passes), "s", len(t.passes)},
		"rps":              {float64(t.ops) / wall, "1/s", t.ops},
		"lat_p50_ms":       {t.lats.quantileMS(0.5), "ms", t.lats.n},
		"lat_p90_ms":       {t.lats.quantileMS(0.9), "ms", t.lats.n},
		"lat_p99_ms":       {t.lats.quantileMS(0.99), "ms", t.lats.n},
		"host.steal_ratio": {t.stealRatio, "ratio", 1},
	}
}

// layerReport assembles the per-layer metrics of a traced run: self times
// from the spans, counts the workload recorded, and the tracing overhead
// as traced minus untraced.
func layerReport(plain, traced *tally, spans []span) map[string]metric {
	out := map[string]metric{}
	for _, d := range layerMetrics {
		out[d.name] = metric{0, d.unit, 0}
	}
	samples := map[string][]float64{}
	for _, g := range selfTimes(spans) {
		for name, ns := range g {
			if sm, ok := spanMetrics[name]; ok {
				samples[sm.metric] = append(samples[sm.metric], float64(ns)/sm.scale)
			}
		}
	}
	for name, v := range traced.layer {
		samples[name] = append(samples[name], v...)
	}
	for name, v := range samples {
		m, ok := out[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		m.Value, m.n = median(v), len(v)
		out[name] = m
	}
	if c := out["machine.sim_cycles"].Value; c > 0 {
		out["machine.ns_per_cycle"] = metric{out["machine.collect_ms"].Value * 1e6 / c, "ns", out["machine.collect_ms"].n}
	}
	att := plain.attempted + traced.attempted
	out["fail_ratio"] = metric{float64(plain.failed+traced.failed) / float64(max(att, 1)), "ratio", att}
	out["trace.spans"] = metric{float64(len(spans)), "count", 1}
	pe, te := plain.endToEnd(), traced.endToEnd()
	for _, d := range wallMetrics {
		out[d.name] = pe[d.name]
	}
	for name := range pe {
		if _, ok := out["trace.overhead_"+name]; ok {
			out["trace.overhead_"+name] = metric{te[name].Value - pe[name].Value, pe[name].Unit, te[name].n}
		}
	}
	return out
}

// printResult prints the metric tables, then the JSON result. untraced
// holds every end-to-end and wall-clock metric of the untraced phase; a
// traced run's per-layer metrics follow it.
func printResult(out io.Writer, name string, res result, untraced map[string]metric, trace bool) error {
	fmt.Fprintf(out, "# %s: attempted %d, failed %d, fail_ratio %g\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	fmt.Fprintln(out, "# untraced:")
	printTable(out, untraced)
	if trace {
		fmt.Fprintln(out, "# per layer (traced):")
		printTable(out, res.Metrics)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func printTable(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(out, "# %-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
}

// cpuSeconds returns the CPU time, user and system, the process has used.
// The kernel does not charge a VM's stolen time to its processes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds returns the CPU time the hypervisor has stolen from this
// VM, summed over its CPUs (the steal column of /proc/stat), or 0 where the
// kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// sampleRSS samples the process's resident set every 10ms until the
// returned stop function is called, which returns the peak in MB.
func sampleRSS() (stop func() float64) {
	quit := make(chan struct{})
	peak := make(chan float64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		p := rssMB()
		for {
			select {
			case <-quit:
				peak <- max(p, rssMB())
				return
			case <-tick.C:
				p = max(p, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-peak
	}
}

// rssMB returns the resident set size in MB: VmRSS from /proc/self/status,
// or else the process's peak from getrusage.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// latencies is a histogram with logarithmic buckets: bucket i holds
// durations in [latBase^i, latBase^(i+1)) ns. Quantiles carry under 1%
// error, and recording allocates nothing, so a run's memory does not grow
// with its request count.
type latencies struct {
	counts [latBuckets]int64
	n      int
}

const (
	latBase    = 1.01
	latBuckets = 2800 // up to latBase^2800 ns, about 20 minutes
)

func (h *latencies) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = min(int(math.Log(float64(d))/math.Log(latBase)), latBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantileMS returns the q-quantile in ms (the geometric middle of its
// bucket), by nearest rank; 0 for no samples.
func (h *latencies) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= max(rank, 1) {
			return math.Pow(latBase, float64(i)+0.5) / 1e6
		}
	}
	panic("perfbench: latency histogram lost samples")
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
