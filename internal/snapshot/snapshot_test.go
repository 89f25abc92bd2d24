package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hwgc/internal/machine"
	"hwgc/internal/mem"
	"hwgc/internal/workload"
)

// captureState runs a collection to a checkpoint and snapshots it.
func captureState(t testing.TB, bench string, cfg machine.Config, cycles int64) *machine.State {
	t.Helper()
	return captureScaled(t, bench, 1, cfg, cycles)
}

// captureScaled is captureState at a workload scale other than 1.
func captureScaled(t testing.TB, bench string, scale int, cfg machine.Config, cycles int64) *machine.State {
	t.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Plan(scale, 42).BuildHeap(2.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginCollect()
	if done, err := m.StepCycles(cycles); err != nil {
		t.Fatal(err)
	} else if done {
		t.Fatalf("collection finished before cycle %d", cycles)
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, cfg := range []machine.Config{
		{Cores: 1},
		{Cores: 4, HeaderCacheLines: 64},
		{Cores: 8, StrideWords: 16, MemBanks: 4},
		{Cores: 4, MutatorOps: 1 << 40},
		{Cores: 4, MutatorOps: 1 << 40, BarrierMode: machine.BarrierSATB},
		{Cores: 4, MutatorOps: 1 << 40, BarrierMode: machine.BarrierIncUpdate},
	} {
		st := captureState(t, "jlisp", cfg, 200)
		data := Encode(st)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode (%d cores): %v", cfg.Cores, err)
		}
		if !reflect.DeepEqual(st, got) {
			t.Fatalf("round trip not identical (%d cores): %v", cfg.Cores, Diff(st, got))
		}
		// And the decoded state must actually restore and resume.
		m, err := machine.RestoreMachine(got)
		if err != nil {
			t.Fatalf("restore (%d cores): %v", cfg.Cores, err)
		}
		if _, err := m.Resume(); err != nil {
			t.Fatalf("resume (%d cores): %v", cfg.Cores, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	st := captureState(t, "jlisp", machine.Config{Cores: 2}, 100)
	data := Encode(st)

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(magic), len(magic) + 4, len(data) / 2, len(data) - 1} {
			if _, err := Decode(data[:n]); err == nil {
				t.Errorf("truncation to %d bytes decoded without error", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("bad magic: err = %v", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[len(magic):], version+1)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version skew: err = %v", err)
		}
	})
	t.Run("payload-bit-flip", func(t *testing.T) {
		// Flipping any payload bit must break a CRC (or the framing).
		for _, off := range []int{20, 50, 100, len(data) - 10} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 1
			if _, err := Decode(bad); err == nil {
				t.Errorf("bit flip at %d decoded without error", off)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), data...), 0xde, 0xad)); err == nil {
			t.Error("trailing bytes decoded without error")
		}
	})
}

func TestDecodeBoundsAllocations(t *testing.T) {
	// A tiny input claiming a huge element count must error out instead of
	// attempting the allocation.
	data := sized(func(w *writer) {
		w.header()
		s := w.begin(tagConfig)
		encodeConfig(w, machine.Config{Cores: 1})
		w.end(s)
		s = w.begin(tagHeap)
		w.i64(64)         // semi
		w.i64(0)          // cur
		w.u32(1)          // alloc
		w.i64(0)          // allocCnt
		w.u32(0xffffffff) // absurd root count with no bytes behind it
		w.end(s)
	})
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("oversized count: err = %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	st := captureState(t, "jlisp", machine.Config{Cores: 2}, 100)
	path := t.TempDir() + "/state" + Suffix
	want := Checkpoint{Point: 3, Cycle: st.Cycle, Request: []byte(`{"Bench":"jlisp"}`), Snap: Encode(st)}
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, ck) {
		t.Fatal("checkpoint file round trip not identical")
	}
	got, err := Decode(ck.Snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("file round trip not identical")
	}
}

func TestDiff(t *testing.T) {
	a := captureState(t, "jlisp", machine.Config{Cores: 2}, 100)
	b := captureState(t, "jlisp", machine.Config{Cores: 2}, 100)
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical states diff: %v", d)
	}
	b.Cycle += 5
	b.Cores[1].Stats.ObjectsScanned++
	b.Heap.Mem[10] ^= 1
	d := Diff(a, b)
	if len(d) != 3 {
		t.Fatalf("want 3 diffs, got %v", d)
	}
	joined := strings.Join(d, "\n")
	for _, want := range []string{"Cycle:", "Cores[1].Stats.ObjectsScanned:", "Heap.Mem[10]:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diff output missing %q:\n%s", want, joined)
		}
	}

	// The ignore list masks top-level fields.
	b2 := captureState(t, "jlisp", machine.Config{Cores: 2, MemLatency: 5}, 100)
	d = Diff(a, b2, "Config")
	for _, line := range d {
		if strings.HasPrefix(line, "Config") {
			t.Errorf("ignored field leaked into diff: %s", line)
		}
	}

	// Output is capped.
	c := captureState(t, "jlisp", machine.Config{Cores: 2}, 100)
	for i := range c.Heap.Mem {
		c.Heap.Mem[i] ^= 0xffff
	}
	d = Diff(a, c)
	if len(d) != maxDiffs+1 || !strings.Contains(d[maxDiffs], "more") {
		t.Fatalf("cap not applied: %d lines, last %q", len(d), d[len(d)-1])
	}
}

// TestDecodeVersion1Fixture pins on-disk back-compat: the committed
// testdata snapshot was written by the version-1 encoder (before the
// concurrent-mutator fields existed) and must keep decoding, restoring and
// resuming to the bit-identical result of an uninterrupted run.
//
// Fixture recipe (burned into the file, do not regenerate with the current
// encoder): workload jlisp, Plan(1, 42).BuildHeap(2.0), machine.Config{
// Cores: 4, HeaderCacheLines: 64}, BeginCollect, StepCycles(500), Snapshot.
func TestDecodeVersion1Fixture(t *testing.T) {
	gz, err := os.ReadFile("testdata/v1-jlisp-c4.snap.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != 1 {
		t.Fatalf("fixture declares version %d, want 1", v)
	}

	st, err := Decode(data)
	if err != nil {
		t.Fatalf("decoding the v1 fixture: %v", err)
	}
	if st.Cycle != 500 {
		t.Fatalf("fixture captured at cycle %d, want 500", st.Cycle)
	}

	// The v1 state must survive a re-encode at the current version.
	up, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("re-encoded fixture failed to decode: %v", err)
	}
	if !reflect.DeepEqual(st, up) {
		t.Fatalf("fixture state changed across the version upgrade: %v", Diff(st, up))
	}

	// Restoring and resuming must reproduce the uninterrupted run exactly.
	m, err := machine.RestoreMachine(st)
	if err != nil {
		t.Fatalf("restoring the v1 fixture: %v", err)
	}
	resumed, err := m.Resume()
	if err != nil {
		t.Fatalf("resuming the v1 fixture: %v", err)
	}
	spec, err := workload.Get("jlisp")
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Plan(1, 42).BuildHeap(2.0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.New(h, machine.Config{Cores: 4, HeaderCacheLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := resumed.DiffFields(&want); diffs != nil {
		for _, d := range diffs {
			t.Errorf("v1 fixture resume vs uninterrupted run: %s", d)
		}
	}

	// Corrupting or truncating the old version still errors cleanly.
	for _, n := range []int{len(magic) + 2, len(data) / 3, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncated v1 fixture (%d bytes) decoded without error", n)
		}
	}
	for _, off := range []int{20, len(data) / 2, len(data) - 10} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 1
		if _, err := Decode(bad); err == nil {
			t.Errorf("v1 fixture with bit flip at %d decoded without error", off)
		}
	}
}

// TestDecodeVersion2Fixture pins on-disk back-compat for the second format
// revision: the committed testdata snapshot was written by the version-2
// encoder (concurrent mutator present, before the memory-hierarchy fields
// existed) and must keep decoding, restoring and resuming to the
// bit-identical result of an uninterrupted run.
//
// Fixture recipe (burned into the file, do not regenerate with the current
// encoder): workload jlisp, Plan(1, 42).BuildHeap(2.0), machine.Config{
// Cores: 4, MutatorOps: 1 << 40, BarrierMode: machine.BarrierSATB},
// BeginCollect, StepCycles(500), Snapshot.
func TestDecodeVersion2Fixture(t *testing.T) {
	gz, err := os.ReadFile("testdata/v2-jlisp-satb-c4.snap.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != 2 {
		t.Fatalf("fixture declares version %d, want 2", v)
	}

	st, err := Decode(data)
	if err != nil {
		t.Fatalf("decoding the v2 fixture: %v", err)
	}
	if st.Cycle != 500 {
		t.Fatalf("fixture captured at cycle %d, want 500", st.Cycle)
	}
	if st.Mut == nil {
		t.Fatal("v2 fixture carries no mutator state")
	}

	// The v2 state must survive a re-encode at the current version.
	up, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("re-encoded fixture failed to decode: %v", err)
	}
	if !reflect.DeepEqual(st, up) {
		t.Fatalf("fixture state changed across the version upgrade: %v", Diff(st, up))
	}

	// Restoring and resuming must reproduce the uninterrupted run exactly.
	m, err := machine.RestoreMachine(st)
	if err != nil {
		t.Fatalf("restoring the v2 fixture: %v", err)
	}
	resumed, err := m.Resume()
	if err != nil {
		t.Fatalf("resuming the v2 fixture: %v", err)
	}
	spec, err := workload.Get("jlisp")
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Plan(1, 42).BuildHeap(2.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{Cores: 4, MutatorOps: 1 << 40, BarrierMode: machine.BarrierSATB}
	ref, err := machine.New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := resumed.DiffFields(&want); diffs != nil {
		for _, d := range diffs {
			t.Errorf("v2 fixture resume vs uninterrupted run: %s", d)
		}
	}

	// Corrupting or truncating the old version still errors cleanly.
	for _, n := range []int{len(magic) + 2, len(data) / 3, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncated v2 fixture (%d bytes) decoded without error", n)
		}
	}
	for _, off := range []int{20, len(data) / 2, len(data) - 10} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 1
		if _, err := Decode(bad); err == nil {
			t.Errorf("v2 fixture with bit flip at %d decoded without error", off)
		}
	}
}

// TestDecodeVersion3Fixture pins the current format the way the v1 and v2
// fixtures pin theirs, with the memory hierarchy on: the committed snapshot
// was captured where the L1 and L2 tag arrays hold valid lines and the
// NUMA-remote and L2-hit completion rings are non-empty (an L1 hit
// completes within its cycle, so that ring is empty at every boundary).
// Being the current version, it must also re-encode to its own bytes.
//
// Fixture recipe (written by the encoder before the single-buffer rewrite;
// do not regenerate): workload jlisp, Plan(1, 42).BuildHeap(2.0),
// machine.Config{Cores: 4, L1Sets: 16, NUMADomains: 4}, BeginCollect,
// StepCycles(541), Snapshot.
func TestDecodeVersion3Fixture(t *testing.T) {
	gz, err := os.ReadFile("testdata/v3-jlisp-cache-numa-c4.snap.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != 3 {
		t.Fatalf("fixture declares version %d, want 3", v)
	}

	st, err := Decode(data)
	if err != nil {
		t.Fatalf("decoding the v3 fixture: %v", err)
	}
	if st.Cycle != 541 {
		t.Fatalf("fixture captured at cycle %d, want 541", st.Cycle)
	}
	if len(st.Mem.RemoteComp) == 0 || len(st.Mem.L2Comp) == 0 {
		t.Fatalf("fixture completion rings: %d remote, %d L2-hit; want both non-empty",
			len(st.Mem.RemoteComp), len(st.Mem.L2Comp))
	}
	if !slices.ContainsFunc(st.Mem.L1[0], func(l mem.CacheLineState) bool { return l.Valid }) ||
		!slices.ContainsFunc(st.Mem.L2, func(l mem.CacheLineState) bool { return l.Valid }) {
		t.Fatal("fixture cache tag arrays hold no valid line")
	}
	if !bytes.Equal(Encode(st), data) {
		t.Fatal("the v3 fixture does not re-encode to its own bytes")
	}

	m, err := machine.RestoreMachine(st)
	if err != nil {
		t.Fatalf("restoring the v3 fixture: %v", err)
	}
	resumed, err := m.Resume()
	if err != nil {
		t.Fatalf("resuming the v3 fixture: %v", err)
	}
	spec, err := workload.Get("jlisp")
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Plan(1, 42).BuildHeap(2.0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.New(h, machine.Config{Cores: 4, L1Sets: 16, NUMADomains: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range resumed.DiffFields(&want) {
		t.Errorf("v3 fixture resume vs uninterrupted run: %s", d)
	}

	for _, n := range []int{len(magic) + 2, len(data) / 3, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncated v3 fixture (%d bytes) decoded without error", n)
		}
	}
	for _, off := range []int{20, len(data) / 2, len(data) - 10} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 1
		if _, err := Decode(bad); err == nil {
			t.Errorf("v3 fixture with bit flip at %d decoded without error", off)
		}
	}
}

// FuzzSnapshotDecode checks that arbitrary bytes — including mutations of a
// valid snapshot — never panic or over-allocate in Decode, and that inputs
// accepted by Decode re-encode canonically.
//
// Decode may allocate at most maxDecodeAlloc bytes per input byte plus a
// fixed decodeAllocSlack: every element count is bounded by the bytes left
// in its section, and the widest element per input byte is a barrier slot
// (a 24-byte slice header for a 1-byte nil marker).
func FuzzSnapshotDecode(f *testing.F) {
	const maxDecodeAlloc, decodeAllocSlack = 32, 4 << 10
	st := captureState(f, "jlisp", machine.Config{Cores: 2}, 100)
	valid := Encode(st)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add(Encode(captureState(f, "jlisp", machine.Config{Cores: 4, L1Sets: 16, NUMADomains: 4}, 541)))
	f.Add(Encode(captureState(f, "jlisp", machine.Config{Cores: 2, MutatorOps: 1 << 40, BarrierMode: machine.BarrierSATB}, 100)))
	f.Add(sized(func(w *writer) { // a heap section claiming more words than remain
		w.header()
		s := w.begin(tagConfig)
		encodeConfig(w, st.Config)
		w.end(s)
		s = w.begin(tagHeap)
		w.i64(int64(st.Heap.Semi))
		w.i64(int64(st.Heap.Cur))
		w.u32(st.Heap.Alloc)
		w.i64(st.Heap.AllocCnt)
		w.count(0)       // roots
		w.count(1 << 24) // words, with two behind it
		w.u64(0)
		w.u64(0)
		w.end(s)
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocBytes(func() { Decode(data) }); n > maxDecodeAlloc*uint64(len(data))+decodeAllocSlack {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		got, err := Decode(data)
		if err != nil {
			return
		}
		if binary.LittleEndian.Uint32(data[len(magic):]) == version {
			// A current-version input Decode accepts must re-encode to the
			// same bytes (one canonical encoding per state).
			if !reflect.DeepEqual(Encode(got), data) {
				t.Fatal("accepted input does not re-encode canonically")
			}
			return
		}
		// An older version re-encodes at the current version; the state must
		// survive the upgrade round trip unchanged.
		up, err := Decode(Encode(got))
		if err != nil {
			t.Fatalf("re-encoding an accepted old-version input failed to decode: %v", err)
		}
		if !reflect.DeepEqual(got, up) {
			t.Fatal("old-version state changed across the re-encode round trip")
		}
	})
}
