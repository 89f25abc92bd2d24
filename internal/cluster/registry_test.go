package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/elastic"
)

// TestCancelledJobIsNotRescued cancels a job through the fleet and then
// kills its owner: the cancel must drop the job from the rescue registry,
// so the next rebalance pass does not resubmit work nobody wants.
func TestCancelledJobIsNotRescued(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test boots real simulators")
	}
	servers := map[string]*httptest.Server{}
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := startJobsBackend(t)
		servers[ts.URL] = ts
		urls = append(urls, ts.URL)
	}
	f, err := New(Options{
		Backends:         urls,
		Replicas:         2,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		HealthInterval:   20 * time.Millisecond,
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()

	req := hwgc.SweepRequest{Bench: "javac", Cores: []int{8, 4, 2, 1}, Seed: 1}
	canon, err := req.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	id := hwgc.KeyBytes(canon)
	if rec := fleetPost(t, f.Handler(), "/v1/jobs", []byte(`{"Sweep":`+string(canon)+`}`)); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rec.Code, rec.Body.String())
	}
	registered := func() int {
		return decodeTopology(t, adminReq(t, f, http.MethodGet, "/v1/admin/topology", nil)).RegistryJobs
	}
	if got := registered(); got != 1 {
		t.Fatalf("registry holds %d jobs after the submit, want 1", got)
	}
	if rec := adminReq(t, f, http.MethodDelete, "/v1/jobs/"+id, nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", rec.Code, rec.Body.String())
	}
	if got := registered(); got != 0 {
		t.Fatalf("registry holds %d jobs after the cancel, want 0", got)
	}

	owner := f.primaryFor(id)
	servers[owner.baseURL].CloseClientConnections()
	servers[owner.baseURL].Close()
	waitFor(t, 5*time.Second, func() bool { return owner.breaker.State() == BreakerOpen })
	rec := adminReq(t, f, http.MethodPost, "/v1/admin/rebalance", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebalance: %d: %s", rec.Code, rec.Body.String())
	}
	var rep elastic.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	metrics := adminReq(t, f, http.MethodGet, "/metrics", nil).Body.String()
	if rep.Resubmitted != 0 || !strings.Contains(metrics, "\ngcelastic_jobs_resubmitted_total 0\n") {
		t.Fatalf("cancelled job resubmitted after its owner died: report %+v", rep)
	}
}
