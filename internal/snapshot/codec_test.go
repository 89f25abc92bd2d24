package snapshot

import (
	"testing"

	"hwgc/internal/machine"
)

// hierarchyConfig is the cache+NUMA configuration of the allocation test
// and the codec benchmark: the v3 cache and NUMA state is live, and the
// memory scheduler keeps both of its per-address counter arrays.
var hierarchyConfig = machine.Config{Cores: 8, L1Sets: 16, NUMADomains: 4}

// TestSnapshotAllocs pins the checkpoint path at one heap-sized allocation
// per direction, at two heap sizes. Encode allocates its exactly sized
// output and nothing heap-sized besides. Decode reads the heap section into
// one word slice that RestoreMachine adopts; the rest of a restore is the
// memory scheduler's per-address counters (an int32 per heap word for
// header stores, and one more with the cache model on).
func TestSnapshotAllocs(t *testing.T) {
	const slack = 64 << 10
	for _, scale := range []int{1, 4} {
		st := captureScaled(t, "search", scale, hierarchyConfig, 2000)
		words := uint64(len(st.Heap.Mem))
		data := Encode(st)

		encAllocs := testing.AllocsPerRun(3, func() { Encode(st) })
		encBytes := allocBytes(func() { Encode(st) })
		if encAllocs > 2 || encBytes > uint64(len(data))+slack {
			t.Errorf("scale %d: Encode made %.0f allocations of %d bytes for a %d-byte snapshot; want at most 2 and %d bytes",
				scale, encAllocs, encBytes, len(data), len(data)+slack)
		}

		restore := func() {
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := machine.RestoreMachine(got); err != nil {
				t.Fatal(err)
			}
		}
		counters := 2 * 4 * words // hdrCnt and stCnt, an int32 each
		if want, got := 8*words+counters+slack, allocBytes(restore); got > want {
			t.Errorf("scale %d: Decode+RestoreMachine allocated %d bytes for %d heap words; want at most %d",
				scale, got, words, want)
		}
	}
}

// BenchmarkSnapshotCodec times the three checkpoint layers on one javac
// collection (scale 2, 8 cores, cache+NUMA; 184k cycles uninterrupted,
// while scale 1 finishes in 92k) suspended 100k cycles in:
// Encode of the captured state, Decode of its bytes, and RestoreMachine of
// a decoded state.
func BenchmarkSnapshotCodec(b *testing.B) {
	st := captureScaled(b, "javac", 2, hierarchyConfig, 100_000)
	data := Encode(st)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			Encode(st)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			got, err := Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := machine.RestoreMachine(got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
