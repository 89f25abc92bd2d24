package machine

import (
	"fmt"
	"reflect"
	"testing"

	"hwgc/internal/heap"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

// buildBench builds a fresh heap from the named workload.
func buildBench(t *testing.T, bench string, scale int) *heap.Heap {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Plan(scale, 42).BuildHeap(2.0)
	if err != nil {
		t.Fatalf("building heap: %v", err)
	}
	return h
}

// referenceRun collects an identical heap uninterrupted and returns the
// stats plus the final heap image.
func referenceRun(t *testing.T, bench string, cfg Config) (Stats, *heap.Heap) {
	t.Helper()
	h := buildBench(t, bench, 1)
	m, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Collect()
	if err != nil {
		t.Fatalf("reference collect: %v", err)
	}
	return st, h
}

// assertSameOutcome checks bit-identity of stats and heap image.
func assertSameOutcome(t *testing.T, label string, want Stats, wantHeap *heap.Heap, got Stats, gotHeap *heap.Heap) {
	t.Helper()
	if diffs := want.DiffFields(&got); len(diffs) > 0 {
		t.Errorf("%s: stats differ: %v", label, diffs)
	}
	if !reflect.DeepEqual(wantHeap.Mem(), gotHeap.Mem()) {
		t.Errorf("%s: heap images differ", label)
	}
	if !reflect.DeepEqual(wantHeap.Roots(), gotHeap.Roots()) {
		t.Errorf("%s: root sets differ", label)
	}
	if wantHeap.AllocPtr() != gotHeap.AllocPtr() {
		t.Errorf("%s: alloc pointers differ: %d vs %d", label, wantHeap.AllocPtr(), gotHeap.AllocPtr())
	}
}

// TestSnapshotRoundTrip suspends a collection at a checkpoint cycle,
// snapshots, restores into a fresh machine, and requires both the restored
// machine and the suspended original to finish bit-identically to an
// uninterrupted run.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Cores: 4}
	want, wantHeap := referenceRun(t, "jlisp", cfg)

	for _, checkpoint := range []int64{1, 7, 100, 1000} {
		t.Run(fmt.Sprintf("cycle%d", checkpoint), func(t *testing.T) {
			h := buildBench(t, "jlisp", 1)
			m, err := New(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.BeginCollect()
			done, err := m.StepCycles(checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				t.Fatalf("collection finished before checkpoint cycle %d", checkpoint)
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			r, err := RestoreMachine(snap)
			if err != nil {
				t.Fatal(err)
			}
			gotR, err := r.Resume()
			if err != nil {
				t.Fatalf("restored resume: %v", err)
			}
			assertSameOutcome(t, "restored", want, wantHeap, gotR, r.Heap())

			gotO, err := m.Resume()
			if err != nil {
				t.Fatalf("original resume: %v", err)
			}
			assertSameOutcome(t, "suspended original", want, wantHeap, gotO, h)
		})
	}
}

// TestSnapshotStateRoundTrip checks that restore reproduces the captured
// state exactly: snapshotting the restored machine yields an identical
// State.
func TestSnapshotStateRoundTrip(t *testing.T) {
	h := buildBench(t, "search", 1)
	m, err := New(h, Config{Cores: 8, HeaderCacheLines: 64, StrideWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	m.BeginCollect()
	if _, err := m.StepCycles(500); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreMachine(snap)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, snap2) {
		t.Fatal("snapshot of restored machine differs from the original snapshot")
	}
}

// TestSnapshotAdversarialCycles hunts for checkpoints at the hairiest
// machine states — a core blocked mid-barrier, a held scan/free/header
// lock, pending split-transaction stores — and requires restore to be
// bit-identical from each of them.
func TestSnapshotAdversarialCycles(t *testing.T) {
	cfg := Config{Cores: 8, MemStoreQueueDepth: 1, MemBandwidth: 1}
	bench := "javac"
	want, wantHeap := referenceRun(t, bench, cfg)

	preds := map[string]func(m *Machine) bool{
		"mid-barrier": func(m *Machine) bool {
			arrived := 0
			for _, c := range m.cores {
				if c.st == sIdle {
					arrived++
				}
			}
			return arrived > 0 && arrived < len(m.cores)
		},
		"held-lock": func(m *Machine) bool {
			if m.sb.ScanOwner() >= 0 || m.sb.FreeOwner() >= 0 {
				return true
			}
			for i := 0; i < cfg.Cores; i++ {
				if m.sb.HeaderLockOf(i) != object.NilPtr {
					return true
				}
			}
			return false
		},
		"pending-inflight": func(m *Machine) bool {
			return !m.mem.Drained() && m.mem.LastInflightDoneAt() > m.cycle
		},
	}

	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			h := buildBench(t, bench, 1)
			m, err := New(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.NoFastForward = true // step every cycle so the predicate sees all states
			m.BeginCollect()
			var snap *State
			for {
				done, err := m.StepCycle()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				if snap == nil && m.cycle > 50 && pred(m) {
					if snap, err = m.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if snap == nil {
				t.Fatalf("predicate %q never matched", name)
			}
			r, err := RestoreMachine(snap)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Resume()
			if err != nil {
				t.Fatalf("resume from %s checkpoint (cycle %d): %v", name, snap.Cycle, err)
			}
			// The reference ran fast-forwarded; the checkpointed run was
			// stepped — stats must still match bit-for-bit (PR 3 invariant)
			// except for the fast-forward bookkeeping itself, which Stats
			// does not include.
			assertSameOutcome(t, name, want, wantHeap, got, r.Heap())
		})
	}
}

// TestSnapshotPhaseErrors checks the Snapshot/Restore guard rails.
func TestSnapshotPhaseErrors(t *testing.T) {
	h := buildBench(t, "jlisp", 1)
	m, err := New(h, Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot before BeginCollect should fail")
	}
	if _, err := m.StepCycle(); err == nil {
		t.Fatal("StepCycle before BeginCollect should fail")
	}
	if _, err := m.FinishCollect(); err == nil {
		t.Fatal("FinishCollect before BeginCollect should fail")
	}
	if _, err := m.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot after a completed collection should fail")
	}
	if _, err := RestoreMachine(nil); err == nil {
		t.Fatal("RestoreMachine(nil) should fail")
	}
}

// TestAddProbeMultiplexes checks that multiple AddProbe observers all fire,
// in registration order, every cycle.
func TestAddProbeMultiplexes(t *testing.T) {
	h := buildBench(t, "jlisp", 1)
	m, err := New(h, Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	var first, a, b int64
	m.AddProbe(func(cycle int64, _ *Machine) {
		first++
		if len(order) < 3 {
			order = append(order, "first")
		}
	})
	m.AddProbe(func(cycle int64, _ *Machine) {
		a++
		if len(order) < 3 {
			order = append(order, "a")
		}
	})
	m.AddProbe(func(cycle int64, _ *Machine) { b++ })
	st, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if first == 0 || first != a || a != b {
		t.Fatalf("probe counts diverge: first=%d a=%d b=%d", first, a, b)
	}
	// Probes fire after every cycle except the final one.
	if want := st.Cycles - m.cfg.ShutdownCycles - 1; first != want {
		t.Fatalf("probes fired %d times, want %d", first, want)
	}
	if len(order) != 3 || order[0] != "first" || order[1] != "a" || order[2] != "first" {
		t.Fatalf("probe order = %v, want first,a,first", order)
	}
	m.ClearProbes()
	if len(m.probes) != 0 {
		t.Fatal("ClearProbes left observers behind")
	}
}
