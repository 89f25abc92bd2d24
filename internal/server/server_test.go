package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hwgc"
)

// newTestServer starts a server with opts plus an httptest front end and
// tears both down (draining) at cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := get(t, ts, "/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wl struct {
		Workloads []string
		Baselines []string
	}
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) == 0 || len(wl.Baselines) == 0 {
		t.Fatalf("empty listing: %s", body)
	}
	found := false
	for _, w := range wl.Workloads {
		if w == "jlisp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("jlisp missing from %v", wl.Workloads)
	}
	if resp, _ := post(t, ts, "/v1/workloads", "{}"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/workloads: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 5})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status   string
		Workers  int
		QueueCap int
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueCap != 5 {
		t.Fatalf("health body wrong: %s", body)
	}
}

func TestCollectCachesByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	req := `{"Bench":"jlisp","Config":{"Cores":4}}`
	resp1, body1 := post(t, ts, "/v1/collect", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	var cr hwgc.CollectResponse
	if err := json.Unmarshal(body1, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Bench != "jlisp" || cr.Key == "" || cr.Result.Stats.Cycles <= 0 {
		t.Fatalf("response content wrong: %+v", cr)
	}
	// Canonicalization: defaults were resolved.
	if cr.Scale != 1 || cr.Seed != 42 {
		t.Fatalf("defaults not canonicalized: scale %d seed %d", cr.Scale, cr.Seed)
	}

	// The same request again: served from cache, byte-identical.
	resp2, body2 := post(t, ts, "/v1/collect", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit not byte-identical")
	}

	// A spelled-out but equivalent request canonicalizes to the same key.
	resp3, body3 := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Scale":1,"Seed":42,"Config":{"Cores":4}}`)
	if got := resp3.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("equivalent request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("equivalent request response differs")
	}
}

func TestCollectInlinePlan(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := `{"Plan":{"Objs":[{"Pi":1,"Delta":1,"Ptrs":[1],"Data":[7]},{"Pi":0,"Delta":2,"Ptrs":[],"Data":[8,9]}],"Roots":[0]},"Config":{"Cores":2},"Verify":true}`
	resp, body := post(t, ts, "/v1/collect", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr hwgc.CollectResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Bench != "plan" || cr.Result.LiveObjects != 2 {
		t.Fatalf("plan response wrong: %+v", cr)
	}
}

func TestCollectRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxScale: 4})
	cases := map[string]string{
		"not json":      `¯\_(ツ)_/¯`,
		"unknown field": `{"Bench":"jlisp","Config":{},"Bogus":1}`,
		"no workload":   `{"Config":{}}`,
		"both":          `{"Bench":"jlisp","Plan":{"Objs":[{"Pi":0,"Delta":0,"Ptrs":[],"Data":[]}],"Roots":[]},"Config":{}}`,
		"unknown bench": `{"Bench":"doom","Config":{}}`,
		"bad config":    `{"Bench":"jlisp","Config":{"Cores":9999}}`,
		"bad plan":      `{"Plan":{"Objs":[{"Pi":3,"Delta":0,"Ptrs":[],"Data":[]}],"Roots":[]},"Config":{}}`,
		"over scale":    `{"Bench":"jlisp","Scale":5,"Config":{}}`,
	}
	for name, body := range cases {
		resp, data := post(t, ts, "/v1/collect", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", name, data)
		}
	}
	if resp, _ := get(t, ts, "/v1/collect"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/collect: status %d, want 405", resp.StatusCode)
	}
}

func TestSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := `{"Bench":"jlisp","Cores":[1,2],"Config":{}}`
	resp, body := post(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr hwgc.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 2 || len(sr.Results[0].Stats.PerCore) != 1 || len(sr.Results[1].Stats.PerCore) != 2 {
		t.Fatalf("sweep results wrong: %+v", sr)
	}
	// 1-core GC must not be faster than 2-core on the same heap... but more
	// to the point here: both ran and the sweep is cached.
	resp2, body2 := post(t, ts, "/v1/sweep", req)
	if resp2.Header.Get("X-Cache") != "HIT" || !bytes.Equal(body, body2) {
		t.Fatal("sweep repeat not served byte-identically from cache")
	}
	if resp, _ := post(t, ts, "/v1/sweep", `{"Cores":[1],"Config":{}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep without bench: status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 7})
	post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`)
	post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{"Cores":2}}`)
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`gcserved_requests_total{path="/v1/collect"} 2`,
		"gcserved_cache_hits_total 1",
		"gcserved_cache_misses_total 1",
		"gcserved_queue_capacity 7",
		"gcserved_queue_depth 0",
		"gcserved_queue_full_total 0",
		"gcserved_jobs_done_total 1",
		`gcserved_request_seconds{quantile="0.99"}`,
		"gcserved_request_seconds_count 2",
		`gcserved_responses_total{code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// Concurrent-collection scenarios must surface in the scrape: one series
// per barrier mode plus the aggregated barrier and floating-garbage
// counters, fed by both the direct and the checkpointed execution path.
func TestMetricsConcurrentCollections(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{
		`{"Bench":"jlisp","Config":{"Cores":2,"MutatorOps":1099511627776,"BarrierMode":"satb"}}`,
		`{"Bench":"jlisp","Config":{"Cores":2,"MutatorOps":1099511627776,"BarrierMode":"incupdate"}}`,
		`{"Bench":"jlisp","Config":{"Cores":2,"MutatorOps":1099511627776}}`,
		`{"Bench":"jlisp","Config":{"Cores":2}}`, // stop-the-world: not counted
	} {
		if resp, b := post(t, ts, "/v1/collect", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("collect %s: status %d: %s", body, resp.StatusCode, b)
		}
	}
	_, body := get(t, ts, "/metrics")
	text := string(body)
	for _, want := range []string{
		`gcserved_concurrent_collections_total{barrier="incupdate"} 1`,
		`gcserved_concurrent_collections_total{barrier="none"} 1`,
		`gcserved_concurrent_collections_total{barrier="satb"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	for _, counter := range []string{"gcserved_barrier_invocations_total", "gcserved_barrier_cycles_total"} {
		v := scrapeValue(t, text, counter)
		if v <= 0 {
			t.Errorf("%s = %d, want > 0", counter, v)
		}
	}
	if v := scrapeValue(t, text, "gcserved_floating_garbage_words_total"); v < 0 {
		t.Errorf("gcserved_floating_garbage_words_total = %d", v)
	}
}

// scrapeValue extracts a single un-labeled counter value from Prometheus
// exposition text.
func scrapeValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// slowServer returns a server whose collect jobs block for d (fake results,
// no simulation), for deterministic backpressure and deadline tests.
func slowServer(t *testing.T, opts Options, d time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.runCollect = func(req hwgc.CollectRequest) ([]byte, error) {
		time.Sleep(d)
		return []byte(fmt.Sprintf(`{"Bench":%q,"Seed":%d}`, req.Bench, req.Seed)), nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// TestQueuedDuplicateServedFromCache queues two identical requests behind
// a blocked worker: the worker runs the collection once, then finds the
// second request's result in the cache at dispatch.
func TestQueuedDuplicateServedFromCache(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	runs := map[int64]int{}
	s.runCollect = func(req hwgc.CollectRequest) ([]byte, error) {
		mu.Lock()
		runs[req.Seed]++
		n := runs[req.Seed]
		mu.Unlock()
		if req.Seed == 1 {
			close(started)
			<-release
		}
		return []byte(fmt.Sprintf(`{"Seed":%d,"Run":%d}`, req.Seed, n)), nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// collect posts from a goroutine of its own, so it reports with
	// t.Error, not t.Fatal.
	collect := func(seed int) (status int, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/collect", "application/json",
			strings.NewReader(fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{}}`, seed)))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		if body, err = io.ReadAll(resp.Body); err != nil {
			t.Error(err)
		}
		return resp.StatusCode, body
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		collect(1)
	}()
	<-started
	bodies := make([][]byte, 2)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := collect(2)
			if status != http.StatusOK {
				t.Errorf("duplicate %d: status %d: %s", i, status, body)
			}
			bodies[i] = body
		}(i)
	}
	for s.queue.Depth() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if runs[2] != 1 || !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("identical queued requests ran %d times; bodies %s and %s", runs[2], bodies[0], bodies[1])
	}
	if got := s.metrics.jobsStarted.Load(); got != 2 {
		t.Fatalf("jobs started = %d, want 2 (the blocker and one duplicate)", got)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s, ts := slowServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second}, 200*time.Millisecond)

	const n = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses = map[int]int{}
		retryHdr string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"Bench":"jlisp","Seed":%d,"Config":{}}`, i+1)
			resp, data := post(t, ts, "/v1/collect", body)
			mu.Lock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests {
				retryHdr = resp.Header.Get("Retry-After")
			}
			_ = data
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no request was rejected by the full queue: %v", statuses)
	}
	if statuses[http.StatusOK]+statuses[http.StatusTooManyRequests] != n {
		t.Fatalf("unexpected statuses: %v", statuses)
	}
	if retryHdr != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", retryHdr)
	}
	if got := s.metrics.queueFull.Load(); got != int64(statuses[http.StatusTooManyRequests]) {
		t.Fatalf("queue_full_total %d != %d rejected requests", got, statuses[http.StatusTooManyRequests])
	}
}

func TestRequestDeadline(t *testing.T) {
	s, ts := slowServer(t, Options{Workers: 1, Timeout: 50 * time.Millisecond}, 300*time.Millisecond)
	resp, body := post(t, ts, "/v1/collect", `{"Bench":"jlisp","Config":{}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if s.metrics.timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}
}
