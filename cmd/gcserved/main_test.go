package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hwgc/internal/server"
)

func TestParseOptionsDefaults(t *testing.T) {
	addr, opts, drain, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":8080" {
		t.Errorf("addr = %q, want :8080", addr)
	}
	if opts.QueueDepth != 64 || opts.CacheEntries != 1024 || opts.CacheBytes != 64<<20 {
		t.Errorf("unexpected defaults: %+v", opts)
	}
	if opts.RetryAfter != time.Second {
		t.Errorf("RetryAfter default = %s, want 1s", opts.RetryAfter)
	}
	if drain != 30*time.Second {
		t.Errorf("drain default = %s, want 30s", drain)
	}
}

func TestParseOptionsRetryAfterWiring(t *testing.T) {
	// The satellite regression: -retry-after must reach server.Options and
	// survive into the actual 429 Retry-After header, including sub-second
	// values which round up to 1, never 0.
	for _, tc := range []struct {
		flag string
		want string
	}{
		{"500ms", "1"},
		{"1s", "1"},
		{"3s", "3"},
		{"2500ms", "3"},
	} {
		_, opts, _, err := parseOptions([]string{"-retry-after", tc.flag})
		if err != nil {
			t.Fatalf("-retry-after %s: %v", tc.flag, err)
		}

		// Boot a server with a full queue so a POST gets a real 429.
		opts.Workers = 1
		opts.QueueDepth = 1
		srv, err := server.New(opts) // never Start()ed: the one queue slot fills and stays full
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(`{"Bench":"jlisp","Config":{}}`)
		first := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			req := httptest.NewRequest("POST", "/v1/collect", bytes.NewReader(body))
			srv.Handler().ServeHTTP(first, req)
		}()
		// Wait until the queued job occupies the slot.
		deadline := time.Now().Add(time.Second)
		for srv.Queue().Depth() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}

		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/collect", bytes.NewReader([]byte(`{"Bench":"jlisp","Seed":99,"Config":{}}`)))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 429 {
			t.Fatalf("-retry-after %s: status %d, want 429", tc.flag, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("-retry-after %s: header %q, want %q", tc.flag, got, tc.want)
		}
		srv.Start() // drain the parked job so the goroutine exits
		<-done
	}
}

func TestParseOptionsErrors(t *testing.T) {
	if _, _, _, err := parseOptions([]string{"-retry-after", "0s"}); err == nil {
		t.Error("zero -retry-after accepted")
	}
	if _, _, _, err := parseOptions([]string{"-retry-after", "-1s"}); err == nil {
		t.Error("negative -retry-after accepted")
	}
	if _, _, _, err := parseOptions([]string{"stray"}); err == nil {
		t.Error("stray positional argument accepted")
	}
	if _, _, _, err := parseOptions([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, _, _, err := parseOptions([]string{"-checkpoint-cycles", "-1"}); err == nil {
		t.Error("negative -checkpoint-cycles accepted")
	}
	if _, _, _, err := parseOptions([]string{"-checkpoint-cycles", "100"}); err == nil {
		t.Error("-checkpoint-cycles without -checkpoint-dir or -jobs-dir accepted")
	}
}

func TestParseOptionsCheckpointFlags(t *testing.T) {
	dir := t.TempDir() + "/ckpts"
	_, opts, _, err := parseOptions([]string{"-checkpoint-dir", dir, "-checkpoint-cycles", "5000"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.CheckpointDir != dir || opts.CheckpointCycles != 5000 {
		t.Errorf("checkpoint options not wired: %+v", opts)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("checkpoint dir not created: %v", err)
	}
	// The same flag sets the jobs tier's slice length.
	jobsDir := t.TempDir() + "/jobs"
	_, opts, _, err = parseOptions([]string{"-jobs-dir", jobsDir, "-checkpoint-cycles", "5000"})
	if err != nil {
		t.Fatalf("-checkpoint-cycles with only -jobs-dir: %v", err)
	}
	if opts.JobsDir != jobsDir || opts.CheckpointCycles != 5000 || opts.CheckpointDir != "" {
		t.Errorf("jobs-tier checkpoint options not wired: %+v", opts)
	}
}

func TestParseOptionsAllFlags(t *testing.T) {
	addr, opts, drain, err := parseOptions(strings.Fields(
		"-addr :9999 -workers 3 -queue 7 -cache-entries 11 -cache-mb 2 -timeout 5s -max-scale 9 -retry-after 2s -drain 1s"))
	if err != nil {
		t.Fatal(err)
	}
	want := server.Options{Workers: 3, QueueDepth: 7, CacheEntries: 11, CacheBytes: 2 << 20,
		Timeout: 5 * time.Second, MaxScale: 9, RetryAfter: 2 * time.Second}
	if addr != ":9999" || opts != want || drain != time.Second {
		t.Errorf("parsed addr=%q opts=%+v drain=%s", addr, opts, drain)
	}
}
