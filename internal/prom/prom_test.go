package prom

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWrite pins the exposition of every family kind: one HELP/TYPE block
// per family, %d integers, %g floats, %q label values in sorted order, and
// label tuples summed when a CounterVec feeds a family over part of its key.
func TestWrite(t *testing.T) {
	type key struct {
		path string
		code int
	}
	var (
		s    Set
		hits atomic.Int64
		reqs CounterVec[key]
		lat  Summary
	)
	s.Counter("x_hits_total", "Hits.", &hits)
	s.Labelled("x_requests_total", "Requests, by path.", "counter", []string{"path"}, func(emit Emit) {
		reqs.Each(func(k key, n int64) { emit(n, k.path) })
	})
	s.Labelled("x_responses_total", "Responses, by code.", "counter", []string{"code"}, func(emit Emit) {
		reqs.Each(func(k key, n int64) { emit(n, strconv.Itoa(k.code)) })
	})
	s.GaugeFunc("x_depth", "Depth.", func() int64 { return 1234567 })
	s.GaugeFloat("x_ratio", "Ratio.", func() float64 { return 0.25 })
	s.Summary("x_seconds", "Latency.", &lat, 0.5, 0.99)
	var other Set
	other.Labelled("y_up", "Up, by backend.", "gauge", []string{"backend", "zone"}, func(emit Emit) {
		emit(0, "b1", "z\"1")
		emit(1, "b0", "z0")
	})

	hits.Add(3)
	reqs.Inc(key{"/b", 200})
	reqs.Inc(key{"/a", 200})
	reqs.Inc(key{"/a", 429})
	lat.Observe(3 * time.Millisecond)
	var b bytes.Buffer
	if err := Write(&b, &s, &other); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP x_hits_total Hits.
# TYPE x_hits_total counter
x_hits_total 3
# HELP x_requests_total Requests, by path.
# TYPE x_requests_total counter
x_requests_total{path="/a"} 2
x_requests_total{path="/b"} 1
# HELP x_responses_total Responses, by code.
# TYPE x_responses_total counter
x_responses_total{code="200"} 2
x_responses_total{code="429"} 1
# HELP x_depth Depth.
# TYPE x_depth gauge
x_depth 1234567
# HELP x_ratio Ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_seconds Latency.
# TYPE x_seconds summary
x_seconds{quantile="0.5"} 0.004096
x_seconds{quantile="0.99"} 0.004096
x_seconds_sum 0.003
x_seconds_count 1
# HELP y_up Up, by backend.
# TYPE y_up gauge
y_up{backend="b0",zone="z0"} 1
y_up{backend="b1",zone="z\"1"} 0
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if got := reqs.Get(key{"/a", 200}); got != 1 {
		t.Errorf("Get = %d, want 1", got)
	}
	if got := lat.Quantile(0.5); got != 4096*time.Microsecond {
		t.Errorf("Quantile = %v, want 4.096ms", got)
	}
}

// TestHotPathAllocs checks that counting into an existing key allocates
// nothing, so the per-request metrics cost no garbage.
func TestHotPathAllocs(t *testing.T) {
	var v CounterVec[string]
	var lat Summary
	v.Inc("/v1/collect")
	if n := testing.AllocsPerRun(100, func() {
		v.Inc("/v1/collect")
		lat.Observe(time.Millisecond)
	}); n != 0 {
		t.Errorf("hot path allocates %v times per op", n)
	}
}

// TestConcurrentScrape counts and scrapes from several goroutines at once;
// run it under the race detector.
func TestConcurrentScrape(t *testing.T) {
	var (
		s    Set
		hits atomic.Int64
		reqs CounterVec[int]
		lat  Summary
	)
	s.Counter("x_hits_total", "Hits.", &hits)
	s.Labelled("x_responses_total", "Responses, by code.", "counter", []string{"code"}, func(emit Emit) {
		reqs.Each(func(code int, n int64) { emit(n, strconv.Itoa(code)) })
	})
	s.Summary("x_seconds", "Latency.", &lat, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hits.Add(1)
				reqs.Inc(200 + i%3)
				lat.Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					if err := Write(io.Discard, &s); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	var b bytes.Buffer
	if err := Write(&b, &s); err != nil {
		t.Fatal(err)
	}
	if n := reqs.Get(200) + reqs.Get(201) + reqs.Get(202); n != 800 || hits.Load() != 800 {
		t.Errorf("counted %d responses and %d hits, want 800 each", n, hits.Load())
	}
}
