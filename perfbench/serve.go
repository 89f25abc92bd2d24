package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hwgc"
	"hwgc/internal/experiments"
	"hwgc/internal/server"
)

// clients is the number of closed-loop clients, of server workers, and of
// the goroutines that compute references: the load one process puts on a
// two-core host.
const clients = 2

// spanHeader carries the client span's ID and op to the traced handler.
const spanHeader = "X-Perfbench-Span"

// serveReq is one generated request with its canonical encoding and
// expected cache key.
type serveReq struct {
	req  hwgc.CollectRequest
	body []byte
	key  string
	warm []byte // body served while warming (hot set only)
	ref  []byte // in-process reference body (hot set only)
}

// served is one cold response kept for the post-window reference check.
type served struct {
	r    *serveReq
	op   int64
	body []byte
}

// serve runs gcserved (server.New with two workers) on a loopback listener
// and drives it with two keep-alive clients in a closed loop. serve-cold
// sends distinct requests that must all miss the cache; serve-hot draws a
// warmed hot set by Zipf and must always hit.
type serve struct {
	o   options
	hot bool

	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve returns
	url  string
	hc   *http.Client
	rec  atomic.Pointer[recorder] // read by the traced handler

	reqs    []serveReq // cold: warm-up then the request list; hot: the hot set
	warmups int        // cold: requests sent by setUp
	perPass int
	nextReq atomic.Int64 // cold: index of the next unsent request
	loop    *loop
	phase   int
	opSeq   atomic.Int64

	mu   sync.Mutex
	kept []served // cold responses awaiting the reference check
}

func newServe(o options, hot bool) *serve {
	return &serve{o: o, hot: hot}
}

func (w *serve) benches() []string {
	if w.o.smoke {
		return []string{"jlisp"}
	}
	return experiments.Benches()
}

// genRequests builds the workload's requests from the seed. Cold: a few
// warm-up requests, then passes of every (bench, cores, verify) combination
// in a seeded order, each request with a distinct heap seed. Hot: 4
// requests per bench at 4 cores, verify on for half.
func (w *serve) genRequests() error {
	rng := rand.New(rand.NewSource(w.o.seed))
	benches := w.benches()
	var reqs []serveReq
	heapSeed := w.o.seed*1_000_003 + 1
	add := func(bench string, cores int, verify bool) {
		heapSeed++
		if heapSeed == 0 {
			heapSeed++ // 0 means the default seed and would repeat a request
		}
		reqs = append(reqs, serveReq{req: hwgc.CollectRequest{
			Bench: bench, Scale: 1, Seed: heapSeed, Config: hwgc.Config{Cores: cores}, Verify: verify,
		}})
	}
	if w.hot {
		for i := 0; i < 4*len(benches); i++ {
			add(benches[i%len(benches)], 4, i/len(benches)%2 == 0)
		}
		w.perPass = 1000
		if w.o.smoke {
			w.perPass = 50
		}
	} else {
		w.warmups = min(8, len(benches)*2)
		for i := 0; i < w.warmups; i++ {
			add(benches[i%len(benches)], hwgc.PaperCoreCounts[i%len(hwgc.PaperCoreCounts)], i%2 == 0)
		}
		passes := 64
		if w.o.smoke {
			passes = 256
		}
		w.perPass = len(benches) * len(hwgc.PaperCoreCounts) * 2
		for p := 0; p < passes; p++ {
			start := len(reqs)
			for _, b := range benches {
				for _, n := range hwgc.PaperCoreCounts {
					add(b, n, false)
					add(b, n, true)
				}
			}
			pass := reqs[start:]
			rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		}
	}
	for i := range reqs {
		body, err := reqs[i].req.CanonicalJSON()
		if err != nil {
			return err
		}
		reqs[i].body, reqs[i].key = body, hwgc.KeyBytes(body)
	}
	w.reqs = reqs
	return nil
}

// prepare computes the hot set's reference bodies in process; the bodies
// served while warming must equal them.
func (w *serve) prepare() error {
	if !w.hot {
		return nil
	}
	return parallel(len(w.reqs), func(i int) error {
		r := &w.reqs[i]
		ref, err := reference(r.req)
		if err != nil {
			return err
		}
		if !bytes.Equal(r.warm, ref) {
			return fmt.Errorf("serve-hot: warm-up body of %s differs from the in-process reference", r.key)
		}
		r.ref = ref
		return nil
	})
}

// reference is the in-process response body for req.
func reference(req hwgc.CollectRequest) ([]byte, error) {
	resp, err := hwgc.NewCollectResponse(req)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = resp.Encode(&b)
	return b.Bytes(), err
}

// parallel runs f(0..n-1) on `clients` goroutines and returns the first
// error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp generates the requests, starts a fresh server and warms it: with
// the hot set for serve-hot, with a few requests outside the measured list
// for serve-cold. Every warm-up response must miss.
func (w *serve) setUp() error {
	w.close()
	if err := w.genRequests(); err != nil {
		return err
	}
	srv, err := server.New(server.Options{Workers: clients})
	if err != nil {
		return err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if w.o.trace {
		h = tracedHandler{h: h, rec: &w.rec}
	}
	w.srv = srv
	w.hs = &http.Server{Handler: h}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	w.url = "http://" + ln.Addr().String()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	if _, err := w.scrape(); err != nil {
		return err
	}
	n := len(w.reqs)
	if !w.hot {
		n = w.warmups
	}
	w.nextReq.Store(int64(n))
	return parallel(n, func(i int) error {
		r := &w.reqs[i]
		var buf bytes.Buffer
		code, cache, key, err := w.post(r, -1, 0, &buf)
		switch {
		case err != nil:
			return err
		case code != http.StatusOK || cache != "MISS" || key != r.key:
			return fmt.Errorf("warming %s: status %d, X-Cache %q, X-Cache-Key %s", r.key, code, cache, key)
		}
		r.warm = buf.Bytes()
		return nil
	})
}

// post sends r and returns the response status, cache class and cache key;
// the body is read into buf.
func (w *serve) post(r *serveReq, parent int32, op int64, buf *bytes.Buffer) (int, string, string, error) {
	hr, err := http.NewRequest(http.MethodPost, w.url+"/v1/collect", bytes.NewReader(r.body))
	if err != nil {
		return 0, "", "", err
	}
	if parent >= 0 {
		hr.Header.Set(spanHeader, fmt.Sprintf("%d/%d", parent, op))
	}
	resp, err := w.hc.Do(hr)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Cache-Key"), err
}

// pass waits for perPass more requests of the closed loop to complete,
// starting the loop on a phase's first pass. The loop runs without a
// barrier between passes, so no client idles at a pass boundary.
func (w *serve) pass(rec *recorder, t *tally, p int) error {
	if p == 0 {
		w.loop = w.startLoop(rec, t)
	}
	var before map[string]float64
	stopSampler := func() {}
	if rec != nil {
		var err error
		if before, err = w.scrape(); err != nil {
			return err
		}
		stopSampler = w.sampleQueue(t)
	}
	for i := 0; i < w.perPass; i++ {
		select {
		case <-w.loop.done:
		case <-w.loop.exited:
			stopSampler()
			return fmt.Errorf("serve-cold: request list of %d exhausted", len(w.reqs))
		}
	}
	stopSampler()
	if rec != nil {
		after, err := w.scrape()
		if err != nil {
			return err
		}
		hits := after["gcserved_cache_hits_total"] - before["gcserved_cache_hits_total"]
		misses := after["gcserved_cache_misses_total"] - before["gcserved_cache_misses_total"]
		t.sample("server.hit_ratio", hits/max(hits+misses, 1))
		t.sample("server.rejected", after["gcserved_queue_full_total"]-before["gcserved_queue_full_total"])
	}
	return nil
}

// loop is the closed loop of one measured phase: `clients` goroutines that
// each send a request, wait for the reply, and send the next.
type loop struct {
	stop   chan struct{} // closed to end the phase
	done   chan struct{} // one send per completed request
	exited chan struct{} // closed once every client has returned
}

func (w *serve) startLoop(rec *recorder, t *tally) *loop {
	l := &loop{stop: make(chan struct{}), done: make(chan struct{}), exited: make(chan struct{})}
	w.rec.Store(rec)
	w.phase++
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			zipf := rand.NewZipf(rand.New(rand.NewSource(w.o.seed+int64(1000*w.phase+c))), 1.1, 1, uint64(len(w.reqs)-1))
			for {
				var r *serveReq
				if w.hot {
					r = &w.reqs[zipf.Uint64()]
				} else {
					i := int(w.nextReq.Add(1) - 1)
					if i >= len(w.reqs) {
						return
					}
					r = &w.reqs[i]
				}
				w.request(rec, t, r, &buf)
				select {
				case l.done <- struct{}{}:
				case <-l.stop:
					return
				}
			}
		}(c)
	}
	go func() {
		wg.Wait()
		close(l.exited)
	}()
	return l
}

// stopLoop ends the phase's loop; each client finishes its request first.
func (w *serve) stopLoop() {
	if w.loop != nil {
		close(w.loop.stop)
		<-w.loop.exited
		w.loop = nil
		w.rec.Store(nil)
	}
}

// request is one closed-loop request: derive the key, post, check. buf is
// the client's reusable response buffer.
func (w *serve) request(rec *recorder, t *tally, r *serveReq, buf *bytes.Buffer) {
	op := w.opSeq.Add(1)
	root := rec.start("request", -1, op, op)
	defer rec.stop(root, "")
	req := r.req // Key canonicalizes in place; the hot set is shared
	ks := rec.start("hwgc.key", root, op, op)
	key, err := req.Key()
	rec.stop(ks, "")
	cs := rec.start("server.client", root, op, op)
	t0 := time.Now()
	code, cache, gotKey, err2 := w.post(r, cs, op, buf)
	body := buf.Bytes()
	t.latency(time.Since(t0))
	rec.stop(cs, "")
	t.attempt(err2 == nil && code == http.StatusOK)
	want := "MISS"
	if w.hot {
		want = "HIT"
	}
	switch {
	case err != nil || err2 != nil:
		t.failf("%s: %v", w.o.workload, errors.Join(err, err2))
	case code != http.StatusOK:
		t.failf("%s: status %d: %s", w.o.workload, code, strings.TrimSpace(string(body)))
	case cache != want:
		t.failf("%s: X-Cache %q, want %q", w.o.workload, cache, want)
	case gotKey != key || key != r.key:
		t.failf("%s: X-Cache-Key %s, client key %s, generated key %s", w.o.workload, gotKey, key, r.key)
	case w.hot && !bytes.Equal(body, r.ref):
		t.failf("%s: body of %s differs from the reference", w.o.workload, key)
	case !w.hot:
		w.mu.Lock()
		w.kept = append(w.kept, served{r, op, bytes.Clone(body)})
		w.mu.Unlock()
	}
}

// sampleQueue samples the server's queue depth every millisecond until the
// returned stop function is called, then records the mean.
func (w *serve) sampleQueue(t *tally) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var sum, n int
		for {
			select {
			case <-quit:
				if n > 0 {
					t.sample("server.queue_depth", float64(sum)/float64(n))
				}
				return
			case <-tick.C:
				sum += w.srv.Queue().Depth()
				n++
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// scrape reads the server's unlabelled /metrics counters.
func (w *serve) scrape() (map[string]float64, error) {
	resp, err := w.hc.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// check compares every kept cold body with an in-process reference; the
// traced run computes it through the layer calls, with spans. serve-hot
// re-encodes each reference response and requires the same bytes.
func (w *serve) check(rec *recorder, t *tally) error {
	w.stopLoop()
	if w.hot {
		return parallel(len(w.reqs), func(i int) error {
			r := &w.reqs[i]
			var resp hwgc.CollectResponse
			if err := json.Unmarshal(r.ref, &resp); err != nil {
				return err
			}
			op := w.opSeq.Add(1)
			var b bytes.Buffer
			s := rec.start("hwgc.encode", -1, op, op)
			err := resp.Encode(&b)
			rec.stop(s, "")
			if err != nil || !bytes.Equal(b.Bytes(), r.ref) {
				return fmt.Errorf("serve-hot: re-encoding the reference of %s changed its bytes (%v)", r.key, err)
			}
			return nil
		})
	}
	kept := w.kept
	w.kept = nil
	return parallel(len(kept), func(i int) error {
		k := kept[i]
		var ref []byte
		var err error
		if rec == nil {
			ref, err = reference(k.r.req)
		} else {
			ref, err = tracedReference(rec, t, k)
		}
		if err != nil {
			t.failf("serve-cold: reference for %s: %v", k.r.key, err)
		} else if !bytes.Equal(ref, k.body) {
			t.failf("serve-cold: body of %s differs from the in-process reference", k.r.key)
		}
		return nil
	})
}

// tracedReference is NewCollectResponse followed by Encode, through the
// layer calls with spans grouped under the served request's op.
func tracedReference(rec *recorder, t *tally, k served) ([]byte, error) {
	req := k.r.req
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	var sc simCounts
	res, err := tracedRun(rec, &sc, false, -1, k.op, k.op, req.Bench, req.Seed, req.Config, req.Verify)
	if err != nil {
		return nil, err
	}
	sc.report(t)
	resp := hwgc.CollectResponse{Key: key, Bench: req.Bench, Scale: req.Scale, Seed: req.Seed, Result: res}
	var b bytes.Buffer
	s := rec.start("hwgc.encode", -1, k.op, k.op)
	err = resp.Encode(&b)
	rec.stop(s, "")
	return b.Bytes(), err
}

func (w *serve) close() {
	w.stopLoop()
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // idle keep-alive connections close at once
	<-w.done
	w.hc.CloseIdleConnections()
	_ = w.srv.Shutdown(ctx) // every request has been answered; nothing is in flight
	w.hs = nil
}

// tracedHandler records a span around the server's Handler().ServeHTTP,
// named by the response's cache class, when a recorder is set.
type tracedHandler struct {
	h   http.Handler
	rec *atomic.Pointer[recorder]
}

func (th tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	rec := th.rec.Load()
	var parent int32 = -1
	var op int64
	if v := r.Header.Get(spanHeader); rec != nil && v != "" {
		if _, err := fmt.Sscanf(v, "%d/%d", &parent, &op); err != nil {
			parent = -1
		}
	}
	if parent < 0 {
		th.h.ServeHTTP(rw, r)
		return
	}
	id := rec.start("server.handler", parent, op, op)
	th.h.ServeHTTP(rw, r)
	name := "server.handler_miss"
	if rw.Header().Get("X-Cache") == "HIT" {
		name = "server.handler_hit"
	}
	rec.stop(id, name)
}
