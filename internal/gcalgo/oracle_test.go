package gcalgo

import (
	"fmt"
	"reflect"
	"testing"

	"hwgc/internal/heap"
	"hwgc/internal/object"
	"hwgc/internal/workload"
)

// refSnapshot is the map-indexed Snapshot the dense one replaced, kept as
// the reference its results and error texts are checked against.
func refSnapshot(h *heap.Heap) (*Graph, error) {
	bases := make(map[object.Addr]bool)
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, _ object.Word) bool {
		bases[b] = true
		return true
	})

	g := &Graph{}
	index := make(map[object.Addr]int)
	var queue []object.Addr

	visit := func(p object.Addr, what string) (int, error) {
		if p == object.NilPtr {
			return -1, nil
		}
		if !bases[p] {
			return 0, fmt.Errorf("gcalgo: %s refers to %d, not a live object base", what, p)
		}
		if i, ok := index[p]; ok {
			return i, nil
		}
		i := len(index)
		index[p] = i
		queue = append(queue, p)
		return i, nil
	}

	for ri, r := range h.Roots() {
		i, err := visit(r, fmt.Sprintf("root %d", ri))
		if err != nil {
			return nil, err
		}
		g.Roots = append(g.Roots, i)
	}

	for qi := 0; qi < len(queue); qi++ {
		b := queue[qi]
		hd := h.Header(b)
		if hd.Mark || hd.Gray {
			return nil, fmt.Errorf("gcalgo: live object at %d still has GC bits set", b)
		}
		n := Node{Pi: hd.Pi, Delta: hd.Delta}
		for i := 0; i < hd.Pi; i++ {
			ci, err := visit(h.Ptr(b, i), fmt.Sprintf("pointer %d of object %d", i, b))
			if err != nil {
				return nil, err
			}
			n.Ptrs = append(n.Ptrs, ci)
		}
		for i := 0; i < hd.Delta; i++ {
			n.Data = append(n.Data, h.Data(b, i))
		}
		g.Nodes = append(g.Nodes, n)
	}
	return g, nil
}

// refCheckIntegrity is the map-indexed heap.CheckIntegrity the dense one
// replaced. It checks pointer slots in map order, so with two or more bad
// slots the one it reports varies from run to run.
func refCheckIntegrity(h *heap.Heap) error {
	base := h.Base(h.CurSpace())
	alloc := h.AllocPtr()
	mem := h.Mem()
	bases := make(map[object.Addr]bool)
	a := base
	for a < alloc {
		w := mem[a]
		hd := object.Decode(w)
		if hd.Mark || hd.Gray {
			return fmt.Errorf("heap: object at %d has GC bits set (%+v)", a, hd)
		}
		bases[a] = true
		next := a + object.Addr(object.SizeWords(w))
		if next > alloc {
			return fmt.Errorf("heap: object at %d (size %d) overruns alloc pointer %d", a, object.SizeWords(w), alloc)
		}
		a = next
	}
	if a != alloc {
		return fmt.Errorf("heap: objects end at %d, alloc pointer at %d", a, alloc)
	}
	check := func(what string, p object.Addr) error {
		if p == object.NilPtr {
			return nil
		}
		if !bases[p] {
			return fmt.Errorf("heap: %s refers to %d, not an object base in the current space", what, p)
		}
		return nil
	}
	for i, r := range h.Roots() {
		if err := check(fmt.Sprintf("root %d", i), r); err != nil {
			return err
		}
	}
	for b := range bases {
		hd := object.Decode(mem[b])
		for i := 0; i < hd.Pi; i++ {
			if err := check(fmt.Sprintf("pointer %d of object %d", i, b), h.Ptr(b, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// refVerifyPreserved and refVerifyCollection are the reference oracle:
// integrity check, a second full graph, Equal, then (for a collection)
// the compaction check.
func refVerifyPreserved(before *Graph, h *heap.Heap) error {
	if err := refCheckIntegrity(h); err != nil {
		return err
	}
	after, err := refSnapshot(h)
	if err != nil {
		return err
	}
	return before.Equal(after)
}

func refVerifyCollection(before *Graph, h *heap.Heap) error {
	if err := refVerifyPreserved(before, h); err != nil {
		return err
	}
	want := h.Base(h.CurSpace()) + object.Addr(before.LiveWords())
	if h.AllocPtr() != want {
		return fmt.Errorf("gcalgo: imperfect compaction: alloc pointer %d, want %d (live words %d)",
			h.AllocPtr(), want, before.LiveWords())
	}
	return nil
}

// badPointerSlots counts the pointer slots of a well-tiled current space
// that refer to something other than nil or an object base: the faults
// whose report order refCheckIntegrity leaves to map iteration.
func badPointerSlots(h *heap.Heap) int {
	bases := map[object.Addr]bool{}
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, _ object.Word) bool {
		bases[b] = true
		return true
	})
	bad := 0
	for b := range bases {
		for i := 0; i < h.Header(b).Pi; i++ {
			if p := h.Ptr(b, i); p != object.NilPtr && !bases[p] {
				bad++
			}
		}
	}
	return bad
}

// fuzzPlan turns fuzz bytes into a small valid plan: one to three roots and
// up to 24 objects with up to three pointer slots and three data words
// each. Missing bytes read as zero.
func fuzzPlan(data []byte) *workload.Plan {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := &workload.Plan{}
	n := 1 + next()%24
	for r, roots := 0, 1+next()%3; r < roots; r++ {
		p.AddRoot(next()%(n+1) - 1)
	}
	for i := 0; i < n; i++ {
		shape := next()
		p.NewObj(shape%4, shape/4%4)
	}
	for i := range p.Objs {
		o := &p.Objs[i]
		for s := range o.Ptrs {
			if t := next() % (n + 1); t < n {
				o.Ptrs[s] = t
			}
		}
		for d := range o.Data {
			o.Data[d] = object.Word(next()) * 0x9E3779B97F4A7C15
		}
	}
	return p
}

// The corruptions FuzzVerifyCollection applies to a collected heap.
const (
	corruptNone = iota
	corruptData
	corruptRewire
	corruptMidObject
	corruptPastAlloc
	corruptMark
	corruptGray
	corruptRedirectRoot
	corruptAppendRoot
	corruptShiftAlloc
	corruptKinds
)

// corrupt applies corruption kind to the collected heap h, choosing its
// target with sel, and returns the heap to verify (a new one when the
// allocation pointer moves down).
func corrupt(t *testing.T, h *heap.Heap, kind int, sel int) *heap.Heap {
	var objs []object.Addr
	h.Objects(h.CurSpace(), h.AllocPtr(), func(b object.Addr, _ object.Word) bool {
		objs = append(objs, b)
		return true
	})
	mem := h.Mem()
	pick := func() object.Addr { return objs[sel%len(objs)] }
	// slot returns the address of a pointer slot of some object, if any
	// object has one.
	slot := func() (object.Addr, bool) {
		for i := range objs {
			b := objs[(sel+i)%len(objs)]
			if pi := object.Pi(mem[b]); pi > 0 {
				return object.PtrSlot(b, sel%pi), true
			}
		}
		return 0, false
	}
	switch kind {
	case corruptData:
		for i := range objs {
			b := objs[(sel+i)%len(objs)]
			if delta := object.Delta(mem[b]); delta > 0 {
				mem[object.DataSlot(b, object.Pi(mem[b]), sel%delta)] ^= 1 << (sel % 64)
				break
			}
		}
	case corruptRewire:
		if s, ok := slot(); ok {
			if sel%5 == 0 {
				mem[s] = object.Word(object.NilPtr)
			} else {
				mem[s] = object.Word(objs[(sel/5)%len(objs)])
			}
		}
	case corruptMidObject:
		if s, ok := slot(); ok {
			b := pick()
			mem[s] = object.Word(b + 1 + object.Addr(sel%(object.SizeWords(mem[b])-1)))
		}
	case corruptPastAlloc:
		if s, ok := slot(); ok {
			mem[s] = object.Word(h.AllocPtr() + object.Addr(sel%8))
		}
	case corruptMark:
		if len(objs) > 0 {
			b := pick()
			mem[b] = object.WithMark(mem[b], b)
		}
	case corruptGray:
		if len(objs) > 0 {
			b := pick()
			hd := object.Decode(mem[b])
			hd.Gray = true
			mem[b] = hd.Encode()
		}
	case corruptRedirectRoot:
		if len(objs) > 0 && h.NumRoots() > 0 {
			h.SetRoot(sel%h.NumRoots(), pick())
		}
	case corruptAppendRoot:
		if len(objs) == 0 || sel%4 == 0 {
			h.AddRoot(object.NilPtr)
		} else {
			h.AddRoot(pick())
		}
	case corruptShiftAlloc:
		if sel%2 == 0 {
			if _, err := h.Alloc(0, sel/2%4); err != nil {
				t.Fatal(err)
			}
			break
		}
		st := h.CaptureState()
		if down := object.Addr(1 + sel/2%3); int(down) <= h.UsedWords() {
			st.Alloc -= down
		}
		shifted, err := heap.FromState(st)
		if err != nil {
			t.Fatal(err)
		}
		return shifted
	}
	return h
}

// sameVerdict fails unless got and want are both nil or both errors, and,
// when exact is set, both carry the same text.
func sameVerdict(t *testing.T, what string, got, want error, exact bool) {
	t.Helper()
	if (got == nil) != (want == nil) || exact && got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: got %v, reference %v", what, got, want)
	}
}

// FuzzVerifyCollection checks the dense oracle against the map-indexed
// reference: a fuzz-built plan is snapshotted (both ways, deep-equal),
// collected by the reference collector, corrupted in one fuzz-chosen way,
// and then Snapshot, VerifyPreserved and VerifyCollection must give the
// reference's verdict, and its error text whenever the reference's own
// report is deterministic. testdata/fuzz/FuzzVerifyCollection holds one
// seed per corruption kind.
func FuzzVerifyCollection(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, sel uint16, data []byte) {
		plan := fuzzPlan(data)
		if err := plan.Validate(); err != nil {
			t.Fatalf("fuzzPlan built an invalid plan: %v", err)
		}
		h, err := plan.BuildHeap(2.0)
		if err != nil {
			t.Fatal(err)
		}
		before, err := Snapshot(h)
		if err != nil {
			t.Fatal(err)
		}
		if ref, err := refSnapshot(h); err != nil || !reflect.DeepEqual(before, ref) {
			t.Fatalf("Snapshot differs from the reference (%v):\n got %+v\nwant %+v", err, before, ref)
		}
		if _, _, err := Collect(h); err != nil {
			t.Fatal(err)
		}
		h = corrupt(t, h, int(kind)%corruptKinds, int(sel))

		got, gotErr := Snapshot(h)
		want, wantErr := refSnapshot(h)
		sameVerdict(t, "Snapshot", gotErr, wantErr, true)
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Snapshot differs from the reference:\n got %+v\nwant %+v", got, want)
		}
		exact := badPointerSlots(h) < 2
		sameVerdict(t, "VerifyPreserved", VerifyPreserved(before, h), refVerifyPreserved(before, h), exact)
		sameVerdict(t, "VerifyCollection", VerifyCollection(before, h), refVerifyCollection(before, h), exact)
	})
}

// oracleHeap builds the named benchmark at scale and collects a clone of
// it with the reference collector, returning both heaps.
func oracleHeap(tb testing.TB, bench string, scale int) (pre, post *heap.Heap) {
	tb.Helper()
	spec, err := workload.Get(bench)
	if err != nil {
		tb.Fatal(err)
	}
	pre, err = spec.Plan(scale, 42).BuildHeap(2.0)
	if err != nil {
		tb.Fatal(err)
	}
	post = pre.Clone()
	if _, _, err := Collect(post); err != nil {
		tb.Fatal(err)
	}
	return pre, post
}

// maxOracleAllocs bounds the allocations of one Snapshot or one
// VerifyCollection, whatever the heap's size.
const maxOracleAllocs = 8

func TestOracleAllocs(t *testing.T) {
	for _, scale := range []int{1, 4} {
		pre, post := oracleHeap(t, "search", scale)
		before, err := Snapshot(pre)
		if err != nil {
			t.Fatal(err)
		}
		snap := testing.AllocsPerRun(3, func() {
			if _, err := Snapshot(pre); err != nil {
				t.Fatal(err)
			}
		})
		verify := testing.AllocsPerRun(3, func() {
			if err := VerifyCollection(before, post); err != nil {
				t.Fatal(err)
			}
		})
		if snap > maxOracleAllocs || verify > maxOracleAllocs {
			t.Errorf("scale %d (%d nodes): Snapshot made %.0f allocations, VerifyCollection %.0f; want at most %d each",
				scale, len(before.Nodes), snap, verify, maxOracleAllocs)
		}
	}
}

func BenchmarkOracle(b *testing.B) {
	for _, bench := range []string{"javacc", "search"} {
		pre, post := oracleHeap(b, bench, 1)
		before, err := Snapshot(pre)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("snapshot/"+bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Snapshot(pre); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("verify/"+bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := VerifyCollection(before, post); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
