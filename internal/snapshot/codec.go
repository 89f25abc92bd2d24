// Package snapshot serializes the complete mid-collection state of the
// simulated GC coprocessor (machine.State) to a versioned, CRC-framed
// binary format, and computes field-level diffs between two states.
//
// The format is the software stand-in for the FPGA prototype's state
// readback path (paper Section VI-A streams internal state off the chip for
// offline analysis): a snapshot holds everything needed to resume the
// collection bit-identically — heap image, scan/free registers and locks,
// per-core register files, memory-scheduler buffers and in-flight split
// transactions, header FIFO and cache, stride table.
//
// Layout:
//
//	magic "HWGCSNP1" | u32 version | section*5
//
// with each section framed as
//
//	u8 tag | u32 payloadLen | payload | u32 crc32(IEEE, payload)
//
// in fixed tag order (config, heap, sync, mem, machine). All integers are
// little-endian and fixed-width. The decoder validates framing, CRCs, and
// every element count against the remaining payload bytes before
// allocating, so truncated, corrupted or adversarial inputs produce errors
// — never panics or unbounded allocations.
//
// A checkpoint copies the heap image once in each direction. Encode counts
// its output size, allocates it once and writes each section in place; it
// reads the heap words straight out of the State, which Machine.Snapshot
// does not copy. Decode reads the heap section into one fresh word slice,
// and machine.RestoreMachine adopts that slice as the restored heap. The
// ownership contract that makes this safe:
//
//   - a State from Machine.Snapshot shares the live heap until that machine
//     steps again, so encode it (or Clone it) first;
//   - machine.RestoreMachine owns the State it is given;
//   - State.Clone is the one explicit copy, for in-process callers that
//     keep both the capturing and the restored machine running.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Format identification. Version 2 appended the concurrent-mutator fields
// (barrier mode and churn-mutator knobs in the config section, the mutator
// port's state in the machine section). Version 3 appended the memory
// hierarchy (NUMA and cache knobs in the config section; locality/cache
// counters, per-load completion classes, the extra completion queues and the
// cache tag arrays in the mem section). Version-1 and -2 snapshots decode
// unchanged. Encode always writes the current version.
const (
	magic      = "HWGCSNP1"
	version    = 3
	minVersion = 1
)

// Section tags, in their fixed file order.
const (
	tagConfig uint8 = 1 + iota
	tagHeap
	tagSync
	tagMem
	tagMachine
)

// writer encodes into buf, which a first, counting pass over the same
// encoders sized exactly: with buf nil a writer only advances off. The two
// passes run the same code, so they agree on every offset by construction,
// and Encode allocates its output once.
type writer struct {
	buf []byte
	off int
}

func (w *writer) u8(v uint8) {
	if w.buf != nil {
		w.buf[w.off] = v
	}
	w.off++
}

func (w *writer) u32(v uint32) {
	if w.buf != nil {
		binary.LittleEndian.PutUint32(w.buf[w.off:], v)
	}
	w.off += 4
}

func (w *writer) u64(v uint64) {
	if w.buf != nil {
		binary.LittleEndian.PutUint64(w.buf[w.off:], v)
	}
	w.off += 8
}

func (w *writer) i64(v int64) { w.u64(uint64(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// count prefixes a sequence with its element count.
func (w *writer) count(n int) { w.u32(uint32(n)) }

// words writes a counted run of u64 words in one pass (the heap image).
func (w *writer) words(v []uint64) {
	w.count(len(v))
	n := 8 * len(v)
	if w.buf != nil {
		dst := w.buf[w.off : w.off+n]
		// Four words a step let the compiler drop the per-word bounds
		// checks, which more than doubles the throughput.
		for len(v) >= 4 && len(dst) >= 32 {
			binary.LittleEndian.PutUint64(dst[0:8], v[0])
			binary.LittleEndian.PutUint64(dst[8:16], v[1])
			binary.LittleEndian.PutUint64(dst[16:24], v[2])
			binary.LittleEndian.PutUint64(dst[24:32], v[3])
			dst, v = dst[32:], v[4:]
		}
		for i, x := range v {
			binary.LittleEndian.PutUint64(dst[8*i:], x)
		}
	}
	w.off += n
}

// header writes the magic and the current version.
func (w *writer) header() {
	for i := 0; i < len(magic); i++ {
		w.u8(magic[i])
	}
	w.u32(version)
}

// begin opens a section: its tag and a length that end patches. It returns
// the offset of the payload.
func (w *writer) begin(tag uint8) int {
	w.u8(tag)
	w.u32(0)
	return w.off
}

// end closes the section whose payload starts at start: it patches the
// length and appends the payload's checksum.
func (w *writer) end(start int) {
	var sum uint32
	if w.buf != nil {
		binary.LittleEndian.PutUint32(w.buf[start-4:], uint32(w.off-start))
		sum = crc32.ChecksumIEEE(w.buf[start:w.off])
	}
	w.u32(sum)
}

// reader consumes one section payload with a sticky error: after the first
// failure every subsequent read returns zero values, and the caller checks
// err once at the end.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.fail("truncated: need %d bytes, have %d", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid boolean encoding")
		return false
	}
}

// intField reads an i64 into an int, rejecting values that do not round-trip
// (a corrupted snapshot must not silently truncate on 32-bit platforms).
func (r *reader) intField() int {
	v := r.i64()
	n := int(v)
	if int64(n) != v {
		r.fail("integer %d overflows int", v)
	}
	return n
}

// count reads an element count and bounds it by the remaining payload:
// every element occupies at least minItemSize bytes, so a count larger than
// remaining/minItemSize is corrupt and must not drive an allocation.
func (r *reader) count(minItemSize int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minItemSize) > int64(r.remaining()) {
		r.fail("element count %d exceeds remaining %d bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

// words reads a counted run of u64 words in one pass (the heap image) into
// a fresh slice; nil when the count is zero.
func (r *reader) words() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	v := make([]uint64, n)
	dst := v
	for len(dst) >= 4 && len(b) >= 32 { // unrolled as in writer.words
		dst[0] = binary.LittleEndian.Uint64(b[0:8])
		dst[1] = binary.LittleEndian.Uint64(b[8:16])
		dst[2] = binary.LittleEndian.Uint64(b[16:24])
		dst[3] = binary.LittleEndian.Uint64(b[24:32])
		dst, b = dst[4:], b[32:]
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v
}

// done checks that the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("snapshot: %d trailing bytes in section", r.remaining())
	}
	return nil
}

// readSection validates the next section's framing against wantTag and
// returns a reader over its checksummed payload.
func readSection(r *reader, wantTag uint8) (reader, error) {
	tag := r.u8()
	n := r.u32()
	if r.err != nil {
		return reader{}, r.err
	}
	if tag != wantTag {
		return reader{}, fmt.Errorf("snapshot: section tag %d, want %d", tag, wantTag)
	}
	payload := r.take(int(n))
	sum := r.u32()
	if r.err != nil {
		return reader{}, r.err
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return reader{}, fmt.Errorf("snapshot: section %d checksum mismatch (%08x != %08x)", tag, got, sum)
	}
	return reader{data: payload}, nil
}
