package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeOptions(t *testing.T, workload string, trace bool, pins *pinSet) options {
	return options{
		workload: workload,
		seed:     42,
		trace:    trace,
		smoke:    true,
		pins:     pins,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
	}
}

// calledLayers names, per workload, the self-time metrics of the layers it
// calls.
var calledLayers = map[string][]string{
	"paper-sweep":    {"workload.plan_ms", "heap.build_ms", "gcalgo.snapshot_ms", "gcalgo.verify_ms", "machine.new_ms", "machine.collect_ms"},
	"serve-cold":     {"workload.plan_ms", "heap.build_ms", "gcalgo.snapshot_ms", "gcalgo.verify_ms", "machine.new_ms", "machine.collect_ms", "hwgc.key_us", "hwgc.encode_us", "server.handler_miss_ms", "server.client_ms"},
	"serve-hot":      {"hwgc.key_us", "hwgc.encode_us", "server.handler_hit_ms", "server.client_ms"},
	"hierarchy-ckpt": {"workload.plan_ms", "heap.build_ms", "machine.new_ms", "machine.collect_ms", "snapshot.capture_ms", "snapshot.encode_ms", "snapshot.decode_ms", "snapshot.restore_ms"},
}

// TestSmokeEveryMetric runs every workload at smoke size, untraced and
// traced, and checks that each metric is printed with its unit and sample
// count, and that every output check passed.
func TestSmokeEveryMetric(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(smokeOptions(t, w, trace, pins), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the JSON result: %v", w, trace, err)
			}
			for _, d := range want {
				if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w, trace, d.name, m.Unit, d.unit)
				}
			}
			// Every run's table holds the end-to-end and wall-clock
			// metrics; a traced run's also the per-layer ones.
			table := append(append([]metricDef(nil), e2eMetrics...), wallMetrics...)
			if trace {
				table = append(table, layerMetrics...)
			}
			for _, d := range table {
				found := false
				for _, l := range lines {
					f := strings.Fields(l)
					if len(f) == 5 && f[1] == d.name && f[3] == d.unit && strings.HasPrefix(f[4], "n=") {
						found = true
					}
				}
				if !found {
					t.Errorf("%s trace=%v: no table line for %s with unit and sample count", w, trace, d.name)
				}
			}
			if trace {
				// Every layer a workload calls reports samples.
				for _, name := range calledLayers[w] {
					if m := res.Metrics[name]; m.n == 0 || m.Value <= 0 {
						t.Errorf("%s: per-layer metric %s = %v with %d samples, want > 0", w, name, m.Value, m.n)
					}
				}
			}
			for _, d := range e2eMetrics {
				if !trace && last.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, d.name, last.Metrics[d.name].Value)
				}
			}
		}
	}
}

// TestCorruptPinFails checks that a pinned digest that does not match the
// program's output is counted in fail_ratio.
func TestCorruptPinFails(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-sweep", "hierarchy-ckpt"} {
		key := pinKey(w, true, 42)
		good := pins.Digests[key]
		if len(good) == 0 {
			t.Fatalf("no pinned digests for %s", key)
		}
		bad := &pinSet{Digests: map[string][]string{key: append([]string{"0000000000000000"}, good[1:]...)}}
		res, err := run(smokeOptions(t, w, true, bad), &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Metrics["fail_ratio"].Value <= 0 {
			t.Errorf("%s with a corrupted pin: correct=%v failed=%d fail_ratio=%v, want a failure",
				w, res.Correct, res.Failed, res.Metrics["fail_ratio"].Value)
		}
	}
}

// TestPinsMatchBENCH4 checks that the paper-sweep pins at seed 42 are the
// gc-clock-cycles BENCH_4.json pins for BenchmarkFig5 and BenchmarkFig6.
func TestPinsMatchBENCH4(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCH_4.json")
	if err != nil {
		t.Skip("BENCH_4.json is not in this checkout:", err)
	}
	var ledger struct {
		Benchmarks []struct {
			Name    string
			Metrics map[string]float64
		}
	}
	if err := json.Unmarshal(b, &ledger); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range ledger.Benchmarks {
		if c, ok := pins.Fig56Cycles[r.Name]; ok {
			n++
			if float64(c) != r.Metrics["gc-clock-cycles"] {
				t.Errorf("%s: pinned %d cycles, BENCH_4.json %v", r.Name, c, r.Metrics["gc-clock-cycles"])
			}
		}
	}
	if n != 80 || len(pins.Fig56Cycles) != 80 {
		t.Errorf("compared %d of %d pinned points with BENCH_4.json, want 80", n, len(pins.Fig56Cycles))
	}
}

// TestBenchmarkJSONNamesMetrics checks that BENCHMARK.json lists exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not in this checkout:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %v", i, w.Name, workloadNames)
		}
	}
}
