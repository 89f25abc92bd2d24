package elastic

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hwgc/internal/jobs"
)

// scriptedBackend is a fake gcserved that answers the five migration
// endpoints from a script and records every call in order.
type scriptedBackend struct {
	ts *httptest.Server

	mu    sync.Mutex
	calls []string // "METHOD path"

	list         []jobs.Info // GET /v1/jobs?active=true
	exportStatus int         // GET /v1/jobs/{id}/checkpoint (0 → 200 + envelope)
	envelope     *jobs.ExportedJob
	importStatus int // PUT status (0 → 201 + receipt)
	receipt      *importReceipt
	known        bool // GET /v1/jobs/{id} answers 200
	submitStatus int  // POST /v1/jobs (0 → 202)
}

func newScriptedBackend(t *testing.T) *scriptedBackend {
	t.Helper()
	sb := &scriptedBackend{}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		sb.calls = append(sb.calls, r.Method+" "+r.URL.Path)
		sb.mu.Unlock()
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs":
			_ = json.NewEncoder(w).Encode(jobListBody{Jobs: sb.list})
		case strings.HasSuffix(r.URL.Path, "/checkpoint"):
			switch r.Method {
			case http.MethodGet:
				if sb.exportStatus != 0 {
					http.Error(w, "scripted export failure", sb.exportStatus)
					return
				}
				_ = json.NewEncoder(w).Encode(sb.envelope)
			case http.MethodPut:
				if sb.importStatus != 0 {
					http.Error(w, "scripted import failure", sb.importStatus)
					return
				}
				w.WriteHeader(http.StatusCreated)
				_ = json.NewEncoder(w).Encode(sb.receipt)
			case http.MethodDelete:
				fmt.Fprint(w, `{}`)
			}
		case r.Method == http.MethodGet: // GET /v1/jobs/{id}
			if sb.known {
				fmt.Fprint(w, `{}`)
				return
			}
			http.Error(w, "no such job", http.StatusNotFound)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			if sb.submitStatus != 0 {
				http.Error(w, "scripted submit failure", sb.submitStatus)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{}`)
		default:
			http.Error(w, "unscripted", http.StatusTeapot)
		}
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *scriptedBackend) callLog() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]string(nil), sb.calls...)
}

func (sb *scriptedBackend) info(id string) BackendInfo {
	return BackendInfo{ID: id, URL: sb.ts.URL, Admissible: true}
}

const testJobID = "cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000"

func planFor(src, dst BackendInfo, ownerOrder ...string) Plan {
	return Plan{
		Backends: []BackendInfo{src, dst},
		Replicas: func(string) []string { return ownerOrder },
	}
}

// TestRebalanceZeroLossOrdering drives one clean migration and checks the
// ordering contract: the source is released only after the destination's
// import receipt verified, and the pass accounts every step.
func TestRebalanceZeroLossOrdering(t *testing.T) {
	src := newScriptedBackend(t)
	dst := newScriptedBackend(t)
	src.list = []jobs.Info{{ID: testJobID, State: jobs.StateCheckpointed, Point: 1}}
	src.envelope = &jobs.ExportedJob{V: 1, ID: testJobID, State: jobs.StateCheckpointed, Point: 1}
	dst.receipt = &importReceipt{Info: jobs.Info{ID: testJobID, Point: 1}, Accepted: true, Point: 1}

	met := NewMetrics()
	m := &Migrator{Metrics: met, Logf: t.Logf}
	rep := m.Rebalance(context.Background(), planFor(src.info("src"), dst.info("dst"), "dst", "src"))

	want := Report{Scanned: 1, Moved: 1, Verified: 1}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	// The destination imported before the source released.
	ckpt := "/v1/jobs/" + testJobID + "/checkpoint"
	srcLog, dstLog := src.callLog(), dst.callLog()
	if len(srcLog) < 3 || srcLog[len(srcLog)-1] != "DELETE "+ckpt {
		t.Fatalf("source call log %v: release must be the last source call", srcLog)
	}
	var dstCkpt []string
	for _, c := range dstLog {
		if strings.Contains(c, "/checkpoint") {
			dstCkpt = append(dstCkpt, c)
		}
	}
	if len(dstCkpt) != 1 || dstCkpt[0] != "PUT "+ckpt {
		t.Fatalf("destination checkpoint calls %v, want exactly one import", dstCkpt)
	}
	if met.JobsMigrated() != 1 || met.migrationsVerified.Load() != 1 || met.migrationBytes.Load() == 0 {
		t.Errorf("metrics migrated=%d verified=%d bytes=%d",
			met.JobsMigrated(), met.migrationsVerified.Load(), met.migrationBytes.Load())
	}

	// A job whose key still routes to its source is never touched.
	src.mu.Lock()
	src.calls = nil
	src.mu.Unlock()
	rep = m.Rebalance(context.Background(), planFor(src.info("src"), dst.info("dst"), "src", "dst"))
	if rep.Moved != 0 || rep.Failed != 0 {
		t.Fatalf("stable-owner pass moved %d failed %d", rep.Moved, rep.Failed)
	}
	for _, c := range src.callLog() {
		if strings.HasPrefix(c, "GET "+ckpt) || strings.HasPrefix(c, "DELETE ") {
			t.Fatalf("stable-owner pass touched the job: %v", src.callLog())
		}
	}
}

// TestRebalanceVerifyGate: a receipt that does not match the exported
// position fails the migration and the source is NOT released.
func TestRebalanceVerifyGate(t *testing.T) {
	src := newScriptedBackend(t)
	dst := newScriptedBackend(t)
	src.list = []jobs.Info{{ID: testJobID, State: jobs.StateCheckpointed, Point: 2}}
	src.envelope = &jobs.ExportedJob{V: 1, ID: testJobID, State: jobs.StateCheckpointed, Point: 2}
	dst.receipt = &importReceipt{Info: jobs.Info{ID: testJobID, Point: 0}, Accepted: true, Point: 0}

	m := &Migrator{Logf: t.Logf}
	rep := m.Rebalance(context.Background(), planFor(src.info("src"), dst.info("dst"), "dst"))
	if rep.Failed != 1 || rep.Moved != 0 || rep.Verified != 0 {
		t.Fatalf("report = %+v, want 1 failure, nothing moved", rep)
	}
	for _, c := range src.callLog() {
		if strings.HasPrefix(c, "DELETE ") {
			t.Fatal("source released despite unverified import")
		}
	}
}

// TestRebalanceSkipsFinishedJob: a 409 export (the job finished or moved
// between listing and export) is a skip, not a failure — which is also what
// makes a second pass over the same topology idempotent.
func TestRebalanceSkipsFinishedJob(t *testing.T) {
	src := newScriptedBackend(t)
	dst := newScriptedBackend(t)
	src.list = []jobs.Info{{ID: testJobID, State: jobs.StateRunning}}
	src.exportStatus = http.StatusConflict

	m := &Migrator{Logf: t.Logf}
	rep := m.Rebalance(context.Background(), planFor(src.info("src"), dst.info("dst"), "dst"))
	if rep.Failed != 0 || rep.Moved != 0 || rep.Scanned != 1 {
		t.Fatalf("report = %+v, want a clean skip", rep)
	}
	for _, c := range dst.callLog() {
		if strings.Contains(c, "/checkpoint") {
			t.Fatalf("destination saw an import for a skipped job: %v", dst.callLog())
		}
	}
}

// TestRebalanceRegistryRescue: a registry job no backend holds (its owner
// died before exporting) is resubmitted from its canonical body; one a
// backend already knows is left alone.
func TestRebalanceRegistryRescue(t *testing.T) {
	dst := newScriptedBackend(t)
	deadID := strings.Repeat("ab", 32)
	knownID := strings.Repeat("cd", 32)
	body := []byte(`{"Collect":{"Bench":"jlisp","Config":{"Cores":2}}}`)

	met := NewMetrics()
	m := &Migrator{Metrics: met, Logf: t.Logf}
	p := Plan{
		Backends: []BackendInfo{dst.info("dst")},
		Replicas: func(string) []string { return []string{"dst"} },
		Registry: map[string][]byte{deadID: body, knownID: body},
	}
	// First rescue: dst knows neither job → both resubmitted.
	rep := m.Rebalance(context.Background(), p)
	if rep.Resubmitted != 2 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want 2 rescues", rep)
	}
	// Second pass with the jobs adopted: nothing to do.
	dst.known = true
	rep = m.Rebalance(context.Background(), p)
	if rep.Resubmitted != 0 || rep.Failed != 0 {
		t.Fatalf("second pass report = %+v, want no rescues", rep)
	}
	if met.JobsResubmitted() != 2 {
		t.Errorf("jobsResubmitted = %d, want 2", met.JobsResubmitted())
	}
}

// TestRebalanceDeadSourceCounted: an unreachable source counts as a failure
// (so the cluster tier retains it for the next pass) without aborting the
// rest of the pass.
func TestRebalanceDeadSourceCounted(t *testing.T) {
	dead := newScriptedBackend(t)
	deadInfo := dead.info("dead")
	dead.ts.Close() // connection refused from here on
	live := newScriptedBackend(t)
	live.list = []jobs.Info{{ID: testJobID, State: jobs.StateQueued}}

	m := &Migrator{Logf: t.Logf}
	p := Plan{
		Backends: []BackendInfo{deadInfo, live.info("live")},
		Replicas: func(string) []string { return []string{"live"} },
	}
	rep := m.Rebalance(context.Background(), p)
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want the dead source counted once", rep.Failed)
	}
	if rep.Scanned != 1 {
		t.Fatalf("scanned = %d: the live source must still be enumerated", rep.Scanned)
	}
}

// TestRebalanceAvoidsInadmissibleDestination: a breaker-open backend is
// still listed as a source, but its keys route to the next admissible
// replica rather than to it.
func TestRebalanceAvoidsInadmissibleDestination(t *testing.T) {
	tripped := newScriptedBackend(t)
	trippedInfo := tripped.info("tripped")
	trippedInfo.Admissible = false
	tripped.list = []jobs.Info{{ID: testJobID, State: jobs.StateCheckpointed, Point: 0}}
	tripped.envelope = &jobs.ExportedJob{V: 1, ID: testJobID, State: jobs.StateCheckpointed, Point: 0}
	healthy := newScriptedBackend(t)
	healthy.receipt = &importReceipt{Info: jobs.Info{ID: testJobID, Point: 0}, Accepted: true}

	m := &Migrator{Logf: t.Logf}
	p := Plan{
		Backends: []BackendInfo{trippedInfo, healthy.info("healthy")},
		// Ring order puts the tripped member first; the driver must fall
		// through to the admissible replica.
		Replicas: func(string) []string { return []string{"tripped", "healthy"} },
	}
	rep := m.Rebalance(context.Background(), p)
	if rep.Moved != 1 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want the job moved off the tripped member", rep)
	}
	for _, c := range healthy.callLog() {
		if strings.HasPrefix(c, "PUT ") {
			return
		}
	}
	t.Fatal("healthy backend never received the import")
}
