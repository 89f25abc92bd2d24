package experiments

import (
	"testing"

	"hwgc/internal/core"
	"hwgc/internal/machine"
)

// applyCase maps one mode over a base config and checks the result.
type applyCase struct {
	base core.Config
	mode string
	ok   func(core.Config) bool
}

// familyCases are the scenario-family test inputs: each family with the
// configuration mapping its modes must produce and the counter invariants
// its verified runs must satisfy.
var familyCases = []struct {
	f          family
	applyCases []applyCase
	counters   func(t *testing.T, ref core.Stats, runs []core.Stats)
}{
	{
		f: barrierFamily,
		applyCases: []applyCase{
			{core.Config{Cores: 2}, "satb", func(c core.Config) bool {
				return c.BarrierMode == machine.BarrierSATB && c.MutatorOps == defaultMutatorOps
			}},
			{core.Config{Cores: 2, MutatorOps: 7}, "satb", func(c core.Config) bool { return c.MutatorOps == 7 }},
			{core.Config{Cores: 2}, "none", func(c core.Config) bool {
				return c.BarrierMode == machine.BarrierNone && c.MutatorOps == defaultMutatorOps
			}},
			{core.Config{Cores: 2, MutatorOps: 7, BarrierMode: machine.BarrierSATB}, "stw", func(c core.Config) bool {
				return c.BarrierMode == machine.BarrierNone && c.MutatorOps == 0
			}},
		},
		counters: barrierCounters,
	},
	{
		f: numaFamily,
		applyCases: []applyCase{
			{core.Config{Cores: 2, NUMADomains: 8, NUMARemotePenalty: 3}, "local", func(c core.Config) bool {
				return c.NUMADomains == 8 && c.NUMAPlacement == machine.PlacementLocal
			}},
			{core.Config{Cores: 2, NUMADomains: 8, NUMARemotePenalty: 3}, "naive", func(c core.Config) bool {
				return c.NUMADomains == 8 && c.NUMAPlacement == machine.PlacementNaive
			}},
			{core.Config{Cores: 2, NUMADomains: 8, NUMARemotePenalty: 3}, "flat", func(c core.Config) bool {
				return c.NUMADomains == 0 && c.NUMAPlacement == machine.PlacementNaive
			}},
			{core.Config{Cores: 2}, "naive", func(c core.Config) bool { return c.NUMADomains == numaDefaultDomains }},
		},
		counters: numaCounters,
	},
}

func TestFamilyApply(t *testing.T) {
	for _, tc := range familyCases {
		t.Run(tc.f.name, func(t *testing.T) {
			for _, ac := range tc.applyCases {
				if got := tc.f.apply(ac.base, ac.mode); !ac.ok(got) {
					t.Errorf("%s from %+v: mapped config %+v", ac.mode, ac.base, got)
				}
			}
		})
	}
}

func TestFamilyDeterministic(t *testing.T) {
	for _, tc := range familyCases {
		t.Run(tc.f.name, func(t *testing.T) {
			refA, a, err := tc.f.run("jlisp", 1, 42, core.Config{Cores: 4}, true)
			if err != nil {
				t.Fatal(err)
			}
			refB, b, err := tc.f.run("jlisp", 1, 42, core.Config{Cores: 4}, true)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := refA.DiffFields(&refB); diffs != nil {
				t.Fatalf("%s: repeated baseline differs: %v", tc.f.baseline, diffs)
			}
			for i, mode := range tc.f.modes {
				if diffs := a[i].DiffFields(&b[i]); diffs != nil {
					t.Fatalf("%s: repeated run differs: %v", mode, diffs)
				}
			}
		})
	}
}

func TestFamilyCounters(t *testing.T) {
	for _, tc := range familyCases {
		t.Run(tc.f.name, func(t *testing.T) {
			ref, runs, err := tc.f.run("jlisp", 1, 42, core.Config{Cores: 4}, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != len(tc.f.modes) {
				t.Fatalf("run returned %d rows, want %d", len(runs), len(tc.f.modes))
			}
			tc.counters(t, ref, runs)
		})
	}
}

// barrierCounters: the stop-the-world baseline has no mutator, every
// concurrent mode makes progress, and only the real barriers fire.
func barrierCounters(t *testing.T, stw core.Stats, runs []core.Stats) {
	if stw.Mutator != nil {
		t.Fatal("stop-the-world baseline reported mutator statistics")
	}
	for i, st := range runs {
		mode := barrierFamily.modes[i]
		ms := st.Mutator
		if ms.Ops == 0 || ms.PtrStores == 0 {
			t.Fatalf("%s: mutator made no progress: %+v", mode, ms)
		}
		if mode == "none" {
			if ms.BarrierInvocations != 0 || ms.BarrierCycles != 0 || ms.ShadedObjects != 0 {
				t.Fatalf("none: barrier fired: %+v", ms)
			}
		} else {
			if ms.BarrierInvocations == 0 || ms.BarrierCycles == 0 {
				t.Fatalf("%s: barrier never fired: %+v", mode, ms)
			}
			if ms.BarrierCycles < ms.BarrierInvocations {
				t.Fatalf("%s: fewer barrier cycles than invocations: %+v", mode, ms)
			}
		}
		if ms.FloatingWords < 0 || ms.FloatingObjects > ms.ShadedObjects {
			t.Fatalf("%s: implausible floating garbage: %+v", mode, ms)
		}
		if ms.MarkTermCycles < 0 || ms.MarkTermCycles > st.Cycles {
			t.Fatalf("%s: mark-termination cycles out of range: %+v", mode, ms)
		}
	}
}

// numaCounters: the flat baseline classifies nothing, the NUMA runs cross
// domains and only ever slow down, and locality-aware placement cuts the
// remote share without costing cycles against naive placement.
func numaCounters(t *testing.T, flat core.Stats, runs []core.Stats) {
	if flat.Mem.LocalAccesses != 0 || flat.Mem.RemoteAccesses != 0 {
		t.Fatalf("flat baseline classified accesses: %+v", flat.Mem)
	}
	byMode := map[string]core.Stats{}
	for i, st := range runs {
		mode := numaFamily.modes[i]
		byMode[mode] = st
		if mode == "flat" {
			continue
		}
		if f := remoteFraction(st); f <= 0 || f >= 1 {
			t.Fatalf("%s: remote fraction %f out of (0, 1)", mode, f)
		}
		if st.Cycles < flat.Cycles {
			t.Fatalf("%s: NUMA run faster than the flat baseline (%d < %d)", mode, st.Cycles, flat.Cycles)
		}
	}
	naive, local := byMode["naive"], byMode["local"]
	if remoteFraction(local) >= remoteFraction(naive) {
		t.Fatalf("local placement did not reduce the remote fraction: %f >= %f",
			remoteFraction(local), remoteFraction(naive))
	}
	if local.Cycles > naive.Cycles {
		t.Fatalf("local placement slower than naive: %d > %d", local.Cycles, naive.Cycles)
	}
}
