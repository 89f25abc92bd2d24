package core

import (
	"reflect"
	"testing"

	"hwgc/internal/workload"
)

func TestBuildBench(t *testing.T) {
	h, plan, err := BuildBench("jlisp", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h.UsedWords() != plan.Words() {
		t.Fatalf("heap holds %d words, plan says %d", h.UsedWords(), plan.Words())
	}
	if _, _, err := BuildBench("nope", 1, 7); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// Scale below 1 is clamped.
	if _, _, err := BuildBench("jlisp", 0, 7); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchmarkVerified(t *testing.T) {
	r, err := RunBenchmark("jlisp", 1, 7, Config{Cores: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "jlisp" || r.Stats.Cycles <= 0 {
		t.Fatalf("result incomplete: %+v", r)
	}
	if r.LiveObjects <= 0 || r.LiveObjects >= r.PlanObjects {
		t.Fatalf("live/plan accounting wrong: %+v", r)
	}
	if int64(r.LiveObjects) != r.Stats.LiveObjects {
		t.Fatalf("plan live %d vs machine live %d", r.LiveObjects, r.Stats.LiveObjects)
	}
}

func TestSweepCores(t *testing.T) {
	res, err := SweepCores("jlisp", []int{1, 2, 4}, 1, 7, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// Fresh identical heaps: live sets identical across the sweep.
	for _, r := range res[1:] {
		if r.LiveObjects != res[0].LiveObjects {
			t.Fatalf("sweep not on identical heaps: %d vs %d", r.LiveObjects, res[0].LiveObjects)
		}
	}
	// More cores never slower for a parallel-friendly benchmark.
	if res[2].Stats.Cycles >= res[0].Stats.Cycles {
		t.Fatalf("4 cores (%d cycles) not faster than 1 (%d)", res[2].Stats.Cycles, res[0].Stats.Cycles)
	}
}

// TestSweepCoresMatchesRunBenchmark pins the heap reuse: a sweep that
// builds its heap once and collects a copy per core count returns exactly
// what one fresh RunBenchmark per core count does.
func TestSweepCoresMatchesRunBenchmark(t *testing.T) {
	for _, bench := range []string{"jlisp", "search"} {
		got, err := SweepCores(bench, PaperCoreCounts, 1, 7, Config{}, true)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]RunResult, 0, len(PaperCoreCounts))
		for _, n := range PaperCoreCounts {
			r, err := RunBenchmark(bench, 1, 7, Config{Cores: n}, true)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SweepCores differs from RunBenchmark per core count:\n got %+v\nwant %+v", bench, got, want)
		}
	}
}

func TestCollectOnceDetectsForeignCorruption(t *testing.T) {
	// CollectOnce with verify must pass on a clean heap.
	h, _, err := BuildBench("jlisp", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectOnce(h, Config{Cores: 2}, true); err != nil {
		t.Fatal(err)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	if _, err := SweepCores("unknown-bench", []int{1}, 1, 7, Config{}, false); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := SweepCores("jlisp", []int{-3}, 1, 7, Config{}, false); err == nil {
		t.Fatal("invalid core count accepted")
	}
}

func TestPaperCoreCounts(t *testing.T) {
	if len(PaperCoreCounts) != 5 || PaperCoreCounts[0] != 1 || PaperCoreCounts[4] != 16 {
		t.Fatalf("paper core counts wrong: %v", PaperCoreCounts)
	}
	for _, n := range PaperCoreCounts {
		if _, err := workload.Get("jlisp"); err != nil {
			t.Fatal(err)
		}
		_ = n
	}
}
