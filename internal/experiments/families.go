package experiments

import (
	"fmt"

	"hwgc/internal/core"
	"hwgc/internal/machine"
)

// family is a scenario family: one benchmark heap collected under a
// baseline and under each reported mode, every mode a transform of a base
// machine configuration, each run on an identically built fresh heap.
// Scenarios are plain configurations, so the whole serving stack —
// gcserved's content-keyed cache, the jobs tier, sweeps, replay — runs them
// with no plumbing beyond what Config already carries.
type family struct {
	name     string
	baseline string   // mode of the reference run every row compares against
	modes    []string // reported modes, in report order
	apply    func(base core.Config, mode string) core.Config
	// check rejects a run missing the signal the family's columns report.
	check func(mode string, st core.Stats) error
}

// run collects bench under the baseline and then every reported mode;
// runs[i] belongs to modes[i], and a reported baseline reuses the reference
// run. Deterministic: the same inputs always yield bit-identical Stats.
func (f family) run(bench string, scale int, seed int64, base core.Config, verify bool) (ref core.Stats, runs []core.Stats, err error) {
	collect := func(mode string) (core.Stats, error) {
		r, err := core.RunBenchmark(bench, scale, seed, f.apply(base, mode), verify)
		if err == nil {
			err = f.check(mode, r.Stats)
		}
		if err != nil {
			return core.Stats{}, fmt.Errorf("%s: %s/%s: %w", f.name, bench, mode, err)
		}
		return r.Stats, nil
	}
	if ref, err = collect(f.baseline); err != nil {
		return core.Stats{}, nil, err
	}
	for _, mode := range f.modes {
		st := ref
		if mode != f.baseline {
			if st, err = collect(mode); err != nil {
				return core.Stats{}, nil, err
			}
		}
		runs = append(runs, st)
	}
	return ref, runs, nil
}

// defaultMutatorOps is the operation budget a barrier scenario gives the
// built-in mutator when its base config leaves MutatorOps unset:
// effectively unbounded, so the mutator churns for the whole collection.
const defaultMutatorOps = 1 << 40

// barrierFamily is the concurrent-collection family (extension E4): the
// built-in churn mutator runs on the mutator port while pointer stores go
// through each write-barrier discipline — none, Yuasa-style
// snapshot-at-the-beginning deletion, Dijkstra-style incremental update —
// against a stop-the-world baseline on the same heap.
var barrierFamily = family{
	name:     "barriers",
	baseline: "stw",
	modes:    []string{"none", string(machine.BarrierSATB), string(machine.BarrierIncUpdate)},
	apply: func(cfg core.Config, mode string) core.Config {
		if mode == "stw" {
			cfg.BarrierMode, cfg.MutatorOps = machine.BarrierNone, 0
			return cfg
		}
		cfg.BarrierMode = machine.BarrierMode(mode)
		if mode == "none" {
			cfg.BarrierMode = machine.BarrierNone
		}
		if cfg.MutatorOps <= 0 {
			cfg.MutatorOps = defaultMutatorOps
		}
		return cfg
	},
	check: func(mode string, st core.Stats) error {
		if mode != "stw" && st.Mutator == nil {
			return fmt.Errorf("run reported no mutator statistics")
		}
		return nil
	},
}

// numaDefaultDomains is the domain count a NUMA scenario uses when its base
// config leaves NUMADomains unset: four domains, a typical socket count for
// the multi-core hosts the paper's FPGA prototype stands in for.
const numaDefaultDomains = 4

// numaFamily is the locality family (extension E5): the address space
// interleaved over memory domains, each GC core affine to one, remote
// accesses paying a latency penalty. It compares the flat uniform-memory
// baseline, naive placement (the tospace striped across all domains) and
// locality-aware placement (each core's evacuation window served by its own
// domain); the headline column is the remote share of DRAM traffic.
var numaFamily = family{
	name:     "numa",
	baseline: "flat",
	modes:    []string{"flat", "naive", "local"},
	apply: func(cfg core.Config, mode string) core.Config {
		cfg.NUMAPlacement = machine.PlacementNaive
		switch mode {
		case "flat":
			cfg.NUMADomains = 0
			return cfg
		case "local":
			cfg.NUMAPlacement = machine.PlacementLocal
		}
		if cfg.NUMADomains <= 0 {
			cfg.NUMADomains = numaDefaultDomains
		}
		return cfg
	},
	check: func(mode string, st core.Stats) error {
		if mode != "flat" && st.Mem.LocalAccesses+st.Mem.RemoteAccesses == 0 {
			return fmt.Errorf("run classified no accesses")
		}
		return nil
	},
}

// remoteFraction is the remote share of st's domain-classified DRAM
// traffic, in [0, 1]; zero when the NUMA model was off.
func remoteFraction(st core.Stats) float64 {
	total := st.Mem.LocalAccesses + st.Mem.RemoteAccesses
	if total == 0 {
		return 0
	}
	return float64(st.Mem.RemoteAccesses) / float64(total)
}
