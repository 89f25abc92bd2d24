package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// A checkpoint file holds one suspended collection: which sweep point it
// belongs to, the clock cycle reached, optionally the canonical request
// that describes it, and the snapshot Encode produced. gcserved's
// -checkpoint-dir and the jobs tier both write it, one file per content
// key, named <key>.ckpt:
//
//	file = magic "HWGCCKP2" | u32 point | u64 cycle | u32 reqLen | req
//	       | u32 snapLen | snap | u32 crc32(IEEE, every preceding byte)
//
// Files are written to a ".ckpt-" temp name, fsynced and renamed, so a
// crash leaves either the previous checkpoint or the new one, never a torn
// file. A file that fails to decode (a torn write caught by the checksum,
// or the format of an older build) cannot be resumed: its owner reclaims it
// and restarts the collection from cycle 0. The simulator is
// deterministic, so that loses time but never correctness.
const (
	fileMagic = "HWGCCKP2"
	// Suffix ends every checkpoint file name: <key>.ckpt.
	Suffix     = ".ckpt"
	tempPrefix = ".ckpt-"
	fileHeader = len(fileMagic) + 4 + 8 + 4
)

// The decoder's errors are values, so decoding allocates nothing.
var (
	errFileHeader    = errors.New("snapshot: bad checkpoint header")
	errFileChecksum  = errors.New("snapshot: checkpoint checksum mismatch")
	errFileTruncated = errors.New("snapshot: truncated checkpoint")
)

// Checkpoint is the content of one checkpoint file.
type Checkpoint struct {
	Point   int    // sweep point index; 0 for a single collection
	Cycle   int64  // clock cycle the snapshot was taken at
	Request []byte // canonical request JSON; nil when the owner keeps it elsewhere
	Snap    []byte // Encode output
}

// EncodeCheckpoint frames c as checkpoint file bytes.
func EncodeCheckpoint(c Checkpoint) []byte {
	buf := make([]byte, 0, fileHeader+len(c.Request)+4+len(c.Snap)+4)
	buf = append(buf, fileMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Point))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Cycle))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Request)))
	buf = append(buf, c.Request...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Snap)))
	buf = append(buf, c.Snap...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeCheckpoint parses checkpoint file bytes, checking each length field
// against the bytes left before it slices. Request and Snap alias data; an
// empty request decodes as nil.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < fileHeader+4+4 || string(data[:len(fileMagic)]) != fileMagic {
		return Checkpoint{}, errFileHeader
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return Checkpoint{}, errFileChecksum
	}
	c := Checkpoint{
		Point: int(binary.LittleEndian.Uint32(body[len(fileMagic):])),
		Cycle: int64(binary.LittleEndian.Uint64(body[len(fileMagic)+4:])),
	}
	req, rest, ok := field(body[fileHeader-4:])
	if ok {
		c.Snap, rest, ok = field(rest)
	}
	if !ok || len(rest) != 0 {
		return Checkpoint{}, errFileTruncated
	}
	if len(req) > 0 {
		c.Request = req
	}
	return c, nil
}

// field splits a u32-length-prefixed byte string off the front of b.
func field(b []byte) (v, rest []byte, ok bool) {
	if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
		return nil, nil, false
	}
	n := 4 + binary.LittleEndian.Uint32(b)
	return b[4:n], b[n:], true
}

// Path returns the checkpoint file path for key in dir. Keys are hex
// SHA-256 content keys, so they are always filename-safe.
func Path(dir, key string) string { return filepath.Join(dir, key+Suffix) }

// WriteFile atomically writes c to path: temp file, fsync, rename.
func WriteFile(path string, c Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(EncodeCheckpoint(c))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and decodes the checkpoint file at path. An absent file
// yields an error satisfying errors.Is(err, os.ErrNotExist).
func ReadFile(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Remove deletes the checkpoint file at path; an absent file is not an
// error.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Scan is the startup sweep both checkpoint owners run over dir: it
// deletes the temp files a crash mid-write left behind — the checkpoint
// writer's and those with any of the extra prefixes — and lists the keys
// of the checkpoint files. reclaimed counts the deleted temp files.
func Scan(dir string, extraTemps ...string) (keys []string, reclaimed int, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range ents {
		name := e.Name()
		hasPrefix := func(p string) bool { return strings.HasPrefix(name, p) }
		switch {
		case !e.Type().IsRegular():
		case hasPrefix(tempPrefix) || slices.ContainsFunc(extraTemps, hasPrefix):
			if os.Remove(filepath.Join(dir, name)) == nil {
				reclaimed++
			}
		case strings.HasSuffix(name, Suffix) && !hasPrefix("."):
			keys = append(keys, strings.TrimSuffix(name, Suffix))
		}
	}
	return keys, reclaimed, nil
}
