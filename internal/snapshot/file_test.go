package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hwgc/internal/machine"
)

// realCheckpoint frames a mid-collection snapshot the way gcserved does,
// returning the file bytes and the snapshot inside.
func realCheckpoint(t testing.TB) (file, snap []byte) {
	t.Helper()
	st := captureState(t, "jlisp", machine.Config{Cores: 2}, 100)
	snap = Encode(st)
	return EncodeCheckpoint(Checkpoint{Cycle: st.Cycle, Request: []byte(`{"Bench":"jlisp","Config":{"Cores":2}}`), Snap: snap}), snap
}

// parentFormats returns checkpoint files in the two formats this one
// replaced: gcserved's request-framed file and the jobs tier's file.
func parentFormats(snap []byte) [][]byte {
	srv := []byte("HWGCCKP1")
	srv = binary.LittleEndian.AppendUint32(srv, 2)
	srv = append(srv, "{}"...)
	srv = append(srv, snap...)
	jobs := []byte("HWGCJCK1")
	jobs = binary.LittleEndian.AppendUint32(jobs, 0)
	jobs = binary.LittleEndian.AppendUint64(jobs, 100)
	jobs = binary.LittleEndian.AppendUint32(jobs, uint32(len(snap)))
	jobs = append(jobs, snap...)
	jobs = binary.LittleEndian.AppendUint32(jobs, crc32.ChecksumIEEE(snap))
	return [][]byte{srv, jobs}
}

func TestCheckpointFileRejectsDamage(t *testing.T) {
	data, _ := realCheckpoint(t)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeCheckpoint(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	for _, i := range []int{0, 9, 20, len(data) / 2, len(data) - 1} {
		bad := bytes.Clone(data)
		bad[i] ^= 0x40
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	for _, old := range parentFormats([]byte("snapshot-bytes")) {
		if _, err := DecodeCheckpoint(old); !errors.Is(err, errFileHeader) {
			t.Fatalf("parent-format file %q: err=%v, want the header check", old[:8], err)
		}
	}
}

// TestCheckpointFileLengthFields checks that a length field claiming more
// bytes than are left is rejected even when the checksum matches.
func TestCheckpointFileLengthFields(t *testing.T) {
	data := EncodeCheckpoint(Checkpoint{Request: []byte("req"), Snap: []byte("snap")})
	for _, off := range []int{fileHeader - 4, fileHeader + 3} {
		for _, n := range []uint32{5, 1 << 31, 0xffffffff} {
			bad := bytes.Clone(data[:len(data)-4])
			binary.LittleEndian.PutUint32(bad[off:], n)
			bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
			if _, err := DecodeCheckpoint(bad); !errors.Is(err, errFileTruncated) {
				t.Fatalf("length %d at offset %d: err=%v", n, off, err)
			}
		}
	}
}

func TestCheckpointFileScan(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"k1" + Suffix, "k2" + Suffix, ".ckpt-123", ".wal-456", "wal.log", ".hidden" + Suffix} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"+Suffix), 0o755); err != nil {
		t.Fatal(err)
	}
	keys, reclaimed, err := Scan(dir, ".wal-")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"k1", "k2"}) || reclaimed != 2 {
		t.Fatalf("Scan = %v, %d reclaimed", keys, reclaimed)
	}
	for _, name := range []string{".ckpt-123", ".wal-456"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("temp %s not reclaimed (err %v)", name, err)
		}
	}
	if _, _, err := Scan(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("scan of a missing directory succeeded")
	}
}

func TestCheckpointFileWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, "k")
	for cycle := int64(1); cycle <= 2; cycle++ {
		if err := WriteFile(path, Checkpoint{Cycle: cycle, Snap: []byte("s")}); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := ReadFile(path)
	if err != nil || ck.Cycle != 2 || ck.Request != nil {
		t.Fatalf("ReadFile = %+v, %v", ck, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %v (err %v), want the one checkpoint", ents, err)
	}
}

// FuzzCheckpointFile checks that DecodeCheckpoint never panics, never
// allocates more than its input, and that every input it accepts
// re-encodes to the same bytes.
func FuzzCheckpointFile(f *testing.F) {
	valid, snap := realCheckpoint(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(EncodeCheckpoint(Checkpoint{}))
	for _, old := range parentFormats(snap) {
		f.Add(old)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocBytes(func() { DecodeCheckpoint(data) }); n > uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if got := EncodeCheckpoint(c); !reflect.DeepEqual(got, data) {
			t.Fatal("accepted input does not re-encode to the same bytes")
		}
	})
}

// allocBytes returns the heap bytes one call of f allocates: the least of
// three measurements, since the counter is process wide and the fuzzing
// engine allocates from other goroutines.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
