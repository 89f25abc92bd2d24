package jobs

import (
	"os"
	"path/filepath"
	"testing"
)

func openTestWAL(t *testing.T, dir string) (*WAL, []walRecord, *Metrics) {
	t.Helper()
	m := NewMetrics()
	w, recs, err := OpenWAL(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	return w, recs, m
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, _ := openTestWAL(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	want := []walRecord{
		{Type: recSubmit, ID: "a", Kind: KindCollect, Class: "batch", Request: []byte(`{"Bench":"search"}`)},
		{Type: recState, ID: "a", State: StateRunning},
		{Type: recPoint, ID: "a", Point: 0, Result: []byte(`{"PlanWords":7}`)},
		{Type: recResult, ID: "a", State: StateDone, Body: []byte("result-bytes")},
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, m2 := openTestWAL(t, dir)
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Type != want[i].Type || rec.ID != want[i].ID || rec.State != want[i].State {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
	if string(got[3].Body) != "result-bytes" {
		t.Fatalf("result body = %q", got[3].Body)
	}
	if m2.walReplayedRecords.Load() != int64(len(want)) {
		t.Fatalf("replayed-records metric = %d", m2.walReplayedRecords.Load())
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir)
	if err := w.Append(walRecord{Type: recSubmit, ID: "a", Kind: KindCollect}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the final record: chop off its last 3 bytes (mid-checksum).
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, m := openTestWAL(t, dir)
	if len(recs) != 1 || recs[0].ID != "a" || recs[0].Type != recSubmit {
		t.Fatalf("replay after torn tail = %+v, want just the submit", recs)
	}
	if m.walTruncatedBytes.Load() == 0 {
		t.Fatal("truncated-bytes metric not bumped")
	}
	// The log must be appendable and replayable again after truncation.
	if err := w2.Append(walRecord{Type: recState, ID: "a", State: StateFailed, Error: "x"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, recs3, _ := openTestWAL(t, dir)
	defer w3.Close()
	if len(recs3) != 2 || recs3[1].State != StateFailed {
		t.Fatalf("replay after re-append = %+v", recs3)
	}
}

func TestWALMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir)
	if err := w.Append(walRecord{Type: recSubmit, ID: "a", Kind: KindCollect}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a payload byte inside the FIRST record: this is silent data
	// damage, not a torn append, and must fail the open loudly.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, NewMetrics()); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
}

func TestWALRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	w, _, m := openTestWAL(t, dir)
	for i := 0; i < 10; i++ {
		if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
			t.Fatal(err)
		}
	}
	big, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	keep := []walRecord{{Type: recSubmit, ID: "a", Kind: KindCollect, Class: "batch"}}
	if err := w.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	small, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() >= big.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", big.Size(), small.Size())
	}
	if m.walCompactions.Load() != 1 {
		t.Fatalf("compactions metric = %d", m.walCompactions.Load())
	}
	// The compacted log must serve appends and replay.
	if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, recs, _ := openTestWAL(t, dir)
	defer w2.Close()
	if len(recs) != 2 || recs[0].Type != recSubmit || recs[1].Type != recState {
		t.Fatalf("replay after compaction = %+v", recs)
	}
}
