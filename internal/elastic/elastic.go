// Package elastic implements live job migration for a dynamic gcfleet:
// when the backend set changes — a backend joins, is removed, or its
// circuit breaker opens — the jobs whose content key now routes elsewhere
// are shipped to their new owner as S21 checkpoint envelopes and resumed
// there byte-identically.
//
// The driver applies the paper's synchronization discipline at fleet
// granularity. The uncontended path is free: a topology change moves only
// the minimal-remap fraction of keys (~1/N for one of N backends), and a
// job whose owner did not change is never touched. Contention is bounded: a
// migrating job loses at most the work since its last snapshot boundary —
// which is zero, because the snapshot restore contract makes the resumed
// run bit-identical. And every transfer is accounted for (jobs migrated,
// bytes shipped, latency, verification outcomes).
//
// Zero-loss ordering: a job is released on its source only after its
// envelope has been imported on the destination and the import receipt
// verified. A failure at any step leaves the job runnable somewhere, and
// because imports are idempotent by content key, replaying a migration (or
// racing two) cannot duplicate work. When a source is dead — its
// checkpoints unreachable — the fleet's submission registry resubmits the
// job to the new owner from scratch; determinism makes the re-run's result
// byte-identical, so only time is lost.
package elastic

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"hwgc/internal/jobs"
)

// BackendInfo describes one backend as the migration driver sees it.
type BackendInfo struct {
	ID  string
	URL string // base URL, no trailing slash
	// Admissible means the backend is reachable for requests right now
	// (breaker not open). Inadmissible backends are never destinations this
	// pass; they are still tried as sources — their API may answer even with
	// the breaker open — and fall back to registry rescue if it does not.
	Admissible bool
	// Removed means the backend has left the ring: it no longer owns any
	// keys, so it can only be a migration source, never a destination.
	Removed bool
}

// Plan is one rebalance pass's view of the fleet, built by the cluster tier
// from an immutable snapshot of the ring and breaker states.
type Plan struct {
	Backends []BackendInfo
	// Replicas returns the candidate owners of a content key in ring order
	// (the fleet's replicasFor over the post-change ring).
	Replicas func(key string) []string
	// Registry maps known job IDs to their canonical POST /v1/jobs bodies.
	// It is the rescue path: when no live backend holds a job, it is
	// resubmitted to its owner from scratch.
	Registry map[string][]byte
}

// Report summarizes one rebalance pass.
type Report struct {
	Scanned     int // active jobs enumerated across live backends
	Moved       int // jobs migrated by checkpoint transfer
	Resubmitted int // jobs rescued from the registry (source dead)
	Verified    int // import receipts that matched the exported position
	Failed      int // migrations or rescues that failed this pass
}

// Migrator ships checkpoints between backends over their gcserved APIs.
type Migrator struct {
	// Client issues the HTTP requests (default http.DefaultClient).
	Client *http.Client
	// Metrics receives the gcelastic_* counters (optional).
	Metrics *Metrics
	// Logf, when set, receives progress and failure lines.
	Logf func(format string, args ...any)
	// ExportWait bounds how long one export waits for a running job to
	// reach its next snapshot boundary (default 30s).
	ExportWait time.Duration
}

func (m *Migrator) client() *http.Client {
	if m.Client != nil {
		return m.Client
	}
	return http.DefaultClient
}

func (m *Migrator) logf(format string, args ...any) {
	if m.Logf != nil {
		m.Logf(format, args...)
	}
}

func (m *Migrator) metric(f func(*Metrics)) {
	if m.Metrics != nil {
		f(m.Metrics)
	}
}

// errSkip marks a job that needs no action this pass (it finished or moved
// between the listing and the export); not a failure.
var errSkip = fmt.Errorf("elastic: nothing to migrate")

// Rebalance runs one migration pass over the plan: every active job on a
// live backend whose content key routes to a different live owner is
// checkpoint-migrated there, and registry jobs that no live backend holds
// are resubmitted to their owner. Rebalance is idempotent — a second pass
// over the same topology finds nothing to move — and safe to re-run after
// partial failure.
func (m *Migrator) Rebalance(ctx context.Context, p Plan) Report {
	var rep Report
	m.metric(func(mm *Metrics) { mm.rebalances.Add(1) })
	dests := make(map[string]BackendInfo)
	for _, b := range p.Backends {
		if b.Admissible && !b.Removed {
			dests[b.ID] = b
		}
	}
	seen := make(map[string]bool)
	// Every backend is a potential source, including inadmissible ones: a
	// member whose breaker opened is exactly the source whose jobs must move,
	// and listing it either works (its API still answers) or fails fast and
	// degrades to the registry rescue below.
	for _, src := range p.Backends {
		infos, err := m.listActive(ctx, src)
		if err != nil {
			// Count the failure so the cluster tier retains this source for
			// the next pass instead of forgetting a possibly-undrained one.
			rep.Failed++
			m.metric(func(mm *Metrics) { mm.migrationsFailed.Add(1) })
			m.logf("elastic: listing jobs on %s: %v", src.ID, err)
			continue
		}
		for _, info := range infos {
			seen[info.ID] = true
			rep.Scanned++
			ownerID := m.ownerFor(p, dests, info.ID)
			if ownerID == "" || ownerID == src.ID {
				continue
			}
			err := m.migrate(ctx, src, dests[ownerID], info.ID, &rep)
			switch {
			case err == nil:
				m.logf("elastic: migrated job %s: %s -> %s", shortID(info.ID), src.ID, ownerID)
			case err == errSkip:
			default:
				rep.Failed++
				m.metric(func(mm *Metrics) { mm.migrationsFailed.Add(1) })
				m.logf("elastic: migrating job %s from %s to %s: %v", shortID(info.ID), src.ID, ownerID, err)
			}
		}
	}
	// Rescue pass: registry jobs no live backend holds (their owner died
	// before exporting) restart from scratch on the new owner.
	ids := make([]string, 0, len(p.Registry))
	for id := range p.Registry {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		ownerID := m.ownerFor(p, dests, id)
		if ownerID == "" {
			continue
		}
		dst := dests[ownerID]
		if m.jobKnown(ctx, dst, id) {
			continue // already done or adopted there
		}
		if err := m.resubmit(ctx, dst, p.Registry[id]); err != nil {
			rep.Failed++
			m.metric(func(mm *Metrics) { mm.migrationsFailed.Add(1) })
			m.logf("elastic: resubmitting job %s to %s: %v", shortID(id), ownerID, err)
			continue
		}
		rep.Resubmitted++
		m.metric(func(mm *Metrics) { mm.jobsResubmitted.Add(1) })
		m.logf("elastic: resubmitted job %s to %s (source dead)", shortID(id), ownerID)
	}
	return rep
}

// ownerFor returns the first replica of key that is a live destination.
func (m *Migrator) ownerFor(p Plan, dests map[string]BackendInfo, key string) string {
	for _, id := range p.Replicas(key) {
		if _, ok := dests[id]; ok {
			return id
		}
	}
	return ""
}

// migrate ships one job from src to dst with the zero-loss ordering:
// export (non-destructive) -> import -> verify receipt -> release source.
func (m *Migrator) migrate(ctx context.Context, src, dst BackendInfo, id string, rep *Report) error {
	start := time.Now()
	raw, env, err := m.export(ctx, src, id)
	if err != nil {
		return err
	}
	receipt, err := m.importTo(ctx, dst, id, raw)
	if err != nil {
		return err
	}
	if receipt.Info.ID != id {
		return fmt.Errorf("import receipt names job %s", receipt.Info.ID)
	}
	if receipt.Accepted && receipt.Info.Point != env.Point {
		return fmt.Errorf("import adopted point %d, exported %d", receipt.Info.Point, env.Point)
	}
	rep.Verified++
	m.metric(func(mm *Metrics) { mm.migrationsVerified.Add(1) })
	// The import is verified: releasing the source cannot lose the job any
	// more. A failed release just leaves it running in both places until
	// the next pass — harmless, since results are deterministic and imports
	// dedupe.
	if err := m.release(ctx, src, id); err != nil {
		m.logf("elastic: releasing job %s on %s after verified import: %v", shortID(id), src.ID, err)
	}
	rep.Moved++
	m.metric(func(mm *Metrics) {
		mm.jobsMigrated.Add(1)
		mm.migrationBytes.Add(int64(len(raw)))
		mm.latency.Observe(time.Since(start))
	})
	return nil
}

// jobListBody mirrors gcserved's GET /v1/jobs response.
type jobListBody struct {
	Jobs []jobs.Info
}

// importReceipt mirrors gcserved's PUT /v1/jobs/{id}/checkpoint response.
type importReceipt struct {
	Info     jobs.Info
	Accepted bool
	Point    int
	Cycle    int64
	SnapCRC  uint32
}

func (m *Migrator) listActive(ctx context.Context, b BackendInfo) ([]jobs.Info, error) {
	var body jobListBody
	if err := m.getJSON(ctx, b.URL+"/v1/jobs?active=true", &body); err != nil {
		return nil, err
	}
	return body.Jobs, nil
}

// export fetches a job's envelope, returning both the raw bytes (forwarded
// verbatim to the destination, so the CRC protects the whole hop) and the
// decoded form (for receipt verification).
func (m *Migrator) export(ctx context.Context, b BackendInfo, id string) ([]byte, *jobs.ExportedJob, error) {
	wait := m.ExportWait
	if wait <= 0 {
		wait = 30 * time.Second
	}
	u := b.URL + "/v1/jobs/" + url.PathEscape(id) + "/checkpoint?wait=" + url.QueryEscape(wait.String())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := m.client().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusNotFound:
		// Finished, already migrated, or compacted away since the listing.
		return nil, nil, errSkip
	default:
		return nil, nil, fmt.Errorf("export: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var env jobs.ExportedJob
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, nil, fmt.Errorf("export: decoding envelope: %w", err)
	}
	return raw, &env, nil
}

func (m *Migrator) importTo(ctx context.Context, b BackendInfo, id string, raw []byte) (*importReceipt, error) {
	u := b.URL + "/v1/jobs/" + url.PathEscape(id) + "/checkpoint"
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, strings.NewReader(string(raw)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("import: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var receipt importReceipt
	if err := json.Unmarshal(data, &receipt); err != nil {
		return nil, fmt.Errorf("import: decoding receipt: %w", err)
	}
	return &receipt, nil
}

func (m *Migrator) release(ctx context.Context, b BackendInfo, id string) error {
	u := b.URL + "/v1/jobs/" + url.PathEscape(id) + "/checkpoint"
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	resp, err := m.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotFound:
		return nil
	case http.StatusConflict:
		return nil // already terminal: nothing left to release
	default:
		return fmt.Errorf("release: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
}

// jobKnown reports whether b already knows the job (any state).
func (m *Migrator) jobKnown(ctx context.Context, b BackendInfo, id string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return false
	}
	resp, err := m.client().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// resubmit POSTs a canonical submit body to b's /v1/jobs.
func (m *Migrator) resubmit(ctx context.Context, b BackendInfo, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("resubmit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return nil
}

// getJSON GETs u and decodes the 200 response into v.
func (m *Migrator) getJSON(ctx context.Context, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := m.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// shortID abbreviates a job ID for log lines.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
