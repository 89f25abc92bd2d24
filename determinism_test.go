package hwgc

import (
	"fmt"
	"testing"

	"hwgc/internal/machine"
)

// The event-driven fast-forward (internal/machine/fastforward.go) must be
// invisible in every reported number: a fast-forwarded collection has to
// produce Stats that are bit-identical to the fully stepped run — total and
// per-phase cycle counts, per-core per-cause stall counters, empty-work-list
// cycles, FIFO, header-cache, memory and synchronization counters, and the
// final heap image. These tests collect every workload twice from identical
// heaps, once stepped and once fast-forwarded, and fail on the first field
// that differs.

// collectBoth builds the workload twice from the same seed and collects one
// copy with fast-forwarding (and load-wait micro-sleep) enabled and the
// other fully stepped. It returns both Stats and the fast-forwarding
// machine's jump telemetry.
func collectBoth(t *testing.T, bench string, scale int, seed int64, cfg Config) (ff, stepped Stats, jumps, skipped int64) {
	t.Helper()
	run := func(noFF bool) (Stats, int64, int64) {
		h, err := BuildWorkload(bench, scale, seed)
		if err != nil {
			t.Fatalf("BuildWorkload(%s): %v", bench, err)
		}
		m, err := machine.New(h, cfg)
		if err != nil {
			t.Fatalf("machine.New: %v", err)
		}
		m.NoFastForward = noFF
		st, err := m.Collect()
		if err != nil {
			t.Fatalf("Collect (NoFastForward=%v): %v", noFF, err)
		}
		j, s := m.FastForwardStats()
		return st, j, s
	}
	ff, jumps, skipped = run(false)
	stepped, steppedJumps, _ := run(true)
	if steppedJumps != 0 {
		t.Fatalf("NoFastForward run still performed %d jumps", steppedJumps)
	}
	return ff, stepped, jumps, skipped
}

// checkIdentical fails the test with a per-field diff when the two Stats are
// not bit-identical.
func checkIdentical(t *testing.T, ff, stepped Stats) {
	t.Helper()
	if diffs := ff.DiffFields(&stepped); diffs != nil {
		for _, d := range diffs {
			t.Errorf("fast-forwarded vs stepped: %s", d)
		}
	}
}

// TestFastForwardDeterminism sweeps every workload over the paper's core
// counts.
func TestFastForwardDeterminism(t *testing.T) {
	for _, bench := range Workloads() {
		for _, cores := range PaperCoreCounts {
			bench, cores := bench, cores
			t.Run(fmt.Sprintf("%s/cores=%d", bench, cores), func(t *testing.T) {
				t.Parallel()
				if testing.Short() && cores != 1 && cores != 16 {
					t.Skip("short mode: endpoints only")
				}
				ff, stepped, _, _ := collectBoth(t, bench, 1, 42, Config{Cores: cores})
				checkIdentical(t, ff, stepped)
			})
		}
	}
}

// TestBarrierModeDeterminism sweeps the concurrent-collection extension over
// the paper's core counts: each write-barrier mode (and the bare concurrent
// mutator with no barrier) must report bit-identical Stats between the
// fast-forward-enabled and fully stepped runs. An attached mutator disables
// fast-forwarding structurally — every cycle can produce a mutator store —
// so the suite also pins jumps==0 on the "fast-forwarding" run.
func TestBarrierModeDeterminism(t *testing.T) {
	for _, mode := range []BarrierMode{BarrierNone, BarrierSATB, BarrierIncUpdate} {
		for _, cores := range PaperCoreCounts {
			mode, cores := mode, cores
			name := string(mode)
			if name == "" {
				name = "none"
			}
			t.Run(fmt.Sprintf("%s/cores=%d", name, cores), func(t *testing.T) {
				t.Parallel()
				if testing.Short() && cores != 1 && cores != 16 {
					t.Skip("short mode: endpoints only")
				}
				cfg := Config{Cores: cores, MutatorOps: 1 << 40, BarrierMode: mode}
				ff, stepped, jumps, _ := collectBoth(t, "jlisp", 1, 42, cfg)
				if jumps != 0 {
					t.Errorf("machine fast-forwarded %d times with a mutator attached", jumps)
				}
				checkIdentical(t, ff, stepped)
				if ff.Mutator == nil {
					t.Fatal("concurrent run reported no mutator stats")
				}
				if mode != BarrierNone && ff.Mutator.BarrierInvocations == 0 {
					t.Errorf("%s run invoked no barriers", name)
				}
			})
		}
	}
}

// TestFastForwardDeterminismConfigs exercises the model variants whose extra
// machinery interacts with the dead-cycle classification: added memory
// latency (long stall windows), stride mode (scan-lock stalls while the
// stride table fills), header cache, a tiny FIFO (frequent fallback header
// loads), and the DRAM bank model (arbitration skips).
func TestFastForwardDeterminismConfigs(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"extra-latency", Config{ExtraMemLatency: 20}},
		{"stride", Config{StrideWords: 8}},
		{"header-cache", Config{HeaderCacheLines: 16}},
		{"tiny-fifo", Config{FIFOCapacity: 2}},
		{"no-fifo", Config{DisableFIFO: true}},
		{"banks", Config{MemBanks: 4}},
		{"numa", Config{NUMADomains: 4, NUMARemotePenalty: 30}},
		{"numa-local", Config{NUMADomains: 4, NUMAPlacement: PlacementLocal}},
		{"numa-banks", Config{NUMADomains: 2, NUMABandwidth: 2, MemBanks: 4}},
	}
	for _, v := range variants {
		for _, cores := range []int{1, 4, 16} {
			v, cores := v, cores
			t.Run(fmt.Sprintf("%s/cores=%d", v.name, cores), func(t *testing.T) {
				t.Parallel()
				cfg := v.cfg
				cfg.Cores = cores
				ff, stepped, _, _ := collectBoth(t, "javacc", 1, 42, cfg)
				checkIdentical(t, ff, stepped)
			})
		}
	}
}

// TestCacheModelDeterminism covers the private-L1/shared-L2 extension. The
// cache model disables fast-forwarding structurally — a hit can complete a
// load in any cycle, so no cycle is provably dead — which makes the FF run
// trivially identical; the suite therefore pins jumps==0 (the gate actually
// engaged) and additionally checks the model did real work (L1 hits landed).
func TestCacheModelDeterminism(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"cache", Config{L1Sets: 16}},
		{"cache-mshr", Config{L1Sets: 8, L1Ways: 1, MSHRs: 2}},
		{"cache-numa", Config{L1Sets: 16, NUMADomains: 4, NUMARemotePenalty: 30}},
	}
	for _, v := range variants {
		for _, cores := range []int{1, 4, 16} {
			v, cores := v, cores
			t.Run(fmt.Sprintf("%s/cores=%d", v.name, cores), func(t *testing.T) {
				t.Parallel()
				cfg := v.cfg
				cfg.Cores = cores
				ff, stepped, jumps, _ := collectBoth(t, "javacc", 1, 42, cfg)
				if jumps != 0 {
					t.Errorf("machine fast-forwarded %d times with the cache model on", jumps)
				}
				checkIdentical(t, ff, stepped)
				if ff.Mem.L1Hits == 0 {
					t.Errorf("%s run recorded no L1 hits", v.name)
				}
			})
		}
	}
}

// TestNUMAFastForwardSkipsCycles pins the NUMA rows of the determinism
// matrix against vacuity: unlike the cache model, pure NUMA keeps every
// completion time computable at issue, so fast-forwarding stays live — and
// on a one-core run with a heavy remote penalty it must skip a large share
// of the (mostly remote-latency) cycles.
func TestNUMAFastForwardSkipsCycles(t *testing.T) {
	cfg := Config{Cores: 1, NUMADomains: 4, NUMARemotePenalty: 40}
	ff, stepped, jumps, skipped := collectBoth(t, "javacc", 1, 42, cfg)
	checkIdentical(t, ff, stepped)
	if jumps == 0 || skipped == 0 {
		t.Fatalf("fast-forward never fired under NUMA: jumps=%d skipped=%d", jumps, skipped)
	}
	if ff.Mem.RemoteAccesses == 0 {
		t.Fatal("NUMA run classified no remote accesses")
	}
	if frac := float64(skipped) / float64(ff.Cycles); frac < 0.5 {
		t.Errorf("fast-forward skipped only %.1f%% of %d cycles; expected a remote-latency-bound 1-core run to be mostly dead",
			100*frac, ff.Cycles)
	}
}

// TestFastForwardSkipsCycles pins the suite against vacuity: on a one-core
// run with added latency most cycles are memory-latency windows, so the
// fast-forward must actually have jumped over a large share of them.
func TestFastForwardSkipsCycles(t *testing.T) {
	ff, stepped, jumps, skipped := collectBoth(t, "javacc", 1, 42, Config{Cores: 1, ExtraMemLatency: 20})
	checkIdentical(t, ff, stepped)
	if jumps == 0 || skipped == 0 {
		t.Fatalf("fast-forward never fired: jumps=%d skipped=%d", jumps, skipped)
	}
	if frac := float64(skipped) / float64(ff.Cycles); frac < 0.5 {
		t.Errorf("fast-forward skipped only %.1f%% of %d cycles; expected a latency-bound 1-core run to be mostly dead",
			100*frac, ff.Cycles)
	}
}

// TestProbeForcesStepping guards the tracing contract: with a Probe
// attached, the machine must step every cycle (no jumps), invoke the probe
// once per cycle, and still produce the exact Stats of the stepped run.
func TestProbeForcesStepping(t *testing.T) {
	cfg := Config{Cores: 4}

	h, err := BuildWorkload("javacc", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var probed int64
	m.AddProbe(func(cycle int64, mm *machine.Machine) {
		if cycle != probed+1 {
			t.Fatalf("probe cycle %d after %d: a cycle was skipped", cycle, probed)
		}
		probed = cycle
	})
	st, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if j, s := m.FastForwardStats(); j != 0 || s != 0 {
		t.Fatalf("machine fast-forwarded under a probe: jumps=%d skipped=%d", j, s)
	}
	// The loop breaks before probing the final cycle.
	loopCycles := st.Cycles - st.Config.ShutdownCycles
	if probed != loopCycles-1 {
		t.Errorf("probe ran %d times, want %d (one per cycle but the last)", probed, loopCycles-1)
	}

	// The traced collection must report the same numbers as the others.
	_, stepped, _, _ := collectBoth(t, "javacc", 1, 42, cfg)
	checkIdentical(t, st, stepped)
}

// TestCollectTracedSamplesEveryCycle is the same contract through the public
// monitoring API: an interval-1 monitor observes every loop cycle.
func TestCollectTracedSamplesEveryCycle(t *testing.T) {
	h, err := BuildWorkload("compress", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(1, 64)
	st, err := CollectTraced(h, Config{Cores: 2}, mon)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Cycles - st.Config.ShutdownCycles - 1
	if mon.Total() != want {
		t.Fatalf("monitor took %d samples, want %d (every cycle but the last)", mon.Total(), want)
	}
}
