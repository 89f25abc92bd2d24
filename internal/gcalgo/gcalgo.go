// Package gcalgo provides an untimed reference implementation of Cheney's
// sequential copying collector (paper Section II) and a verification oracle.
//
// The reference collector is the specification against which every other
// collector in this repository — the simulated multi-core coprocessor and
// the software baseline collectors — is checked: a collection is correct
// when the logical object graph reachable from the roots is preserved
// (same shapes, same data, same wiring), all surviving objects lie compacted
// at the bottom of the new space, and no GC bookkeeping bits remain.
package gcalgo

import (
	"fmt"
	"slices"

	"hwgc/internal/heap"
	"hwgc/internal/object"
)

// Collect runs Cheney's sequential algorithm on h: it flips the semispaces,
// evacuates all objects reachable from the root set into the new space, and
// updates the roots. It returns the number of live objects and words.
func Collect(h *heap.Heap) (liveObjects, liveWords int, err error) {
	to := h.OtherSpace()
	base := h.Base(to)
	limit := h.Limit(to)
	mem := h.Mem()

	scan := base
	free := base

	// evacuate copies the full object at p into tospace (the reference
	// implementation copies eagerly rather than via backlinks; the result
	// is identical) and returns the forwarding pointer.
	evacuate := func(p object.Addr) (object.Addr, error) {
		hdr := mem[p]
		if object.Marked(hdr) {
			return object.Link(hdr), nil
		}
		size := object.Addr(object.SizeWords(hdr))
		if free+size > limit {
			return 0, fmt.Errorf("gcalgo: tospace overflow at free=%d size=%d", free, size)
		}
		dst := free
		free += size
		mem[dst] = object.BlackHeader(hdr)
		mem[dst+1] = 0
		copy(mem[dst+object.HeaderWords:dst+size], mem[p+object.HeaderWords:p+size])
		mem[p] = object.WithMark(hdr, dst)
		liveObjects++
		return dst, nil
	}

	roots := h.Roots()
	for i, r := range roots {
		if r == object.NilPtr {
			continue
		}
		fwd, e := evacuate(r)
		if e != nil {
			return 0, 0, e
		}
		h.SetRoot(i, fwd)
	}

	for scan < free {
		hdr := mem[scan]
		pi := object.Pi(hdr)
		for i := 0; i < pi; i++ {
			slot := object.PtrSlot(scan, i)
			p := object.Addr(mem[slot])
			if p == object.NilPtr {
				continue
			}
			fwd, e := evacuate(p)
			if e != nil {
				return 0, 0, e
			}
			mem[slot] = object.Word(fwd)
		}
		scan += object.Addr(object.SizeWords(hdr))
	}

	h.FinishCycle(free)
	return liveObjects, int(free - base), nil
}

// Node is one object of a logical heap graph. Pointer slots hold node
// indices (-1 for nil).
type Node struct {
	Pi    int
	Delta int
	Ptrs  []int
	Data  []object.Word
}

// Graph is the logical object graph reachable from a heap's roots, in a
// canonical form: nodes are numbered in deterministic breadth-first
// discovery order starting from the roots. Two heaps hold the same logical
// graph exactly when their Graphs are deep-equal, regardless of where the
// collector placed the objects.
type Graph struct {
	Roots []int // node indices, -1 for nil roots
	Nodes []Node
}

// Snapshot extracts the canonical logical graph of h's current space. It
// validates that every traversed pointer refers to an object base within the
// current space.
//
// It makes a fixed number of allocations whatever the heap's size: a dense
// index over the space's addresses, the breadth-first queue, and the graph,
// whose nodes' Ptrs and Data are slices of two arenas sized to the
// reachable set, found by a discovery pass before the fill pass.
func Snapshot(h *heap.Heap) (*Graph, error) {
	base, alloc, mem := h.Base(h.CurSpace()), h.AllocPtr(), h.Mem()
	// index[a-base] is 0 when a is not an object base in the current space,
	// -1 for a base not yet reached, and i+1 once a is node i.
	index := make([]int32, alloc-base)
	objects := 0
	for a := base; a < alloc; a += object.Addr(object.SizeWords(mem[a])) {
		index[a-base] = -1
		objects++
	}
	queue := make([]object.Addr, 0, objects)
	// visit returns p's node index (-1 for nil), numbering and enqueueing
	// p when first reached; ok is false when p is not an object base.
	visit := func(p object.Addr) (i int, ok bool) {
		if p == object.NilPtr {
			return -1, true
		}
		if p < base || p >= alloc || index[p-base] == 0 {
			return 0, false
		}
		if index[p-base] < 0 {
			queue = append(queue, p)
			index[p-base] = int32(len(queue))
		}
		return int(index[p-base]) - 1, true
	}

	roots := h.Roots()
	for ri, r := range roots {
		if _, ok := visit(r); !ok {
			return nil, fmt.Errorf("gcalgo: root %d refers to %d, not a live object base", ri, r)
		}
	}
	ptrs, data := 0, 0
	for qi := 0; qi < len(queue); qi++ {
		b := queue[qi]
		hdr := mem[b]
		if object.Marked(hdr) || object.GrayBit(hdr) {
			return nil, fmt.Errorf("gcalgo: live object at %d still has GC bits set", b)
		}
		pi := object.Pi(hdr)
		for i := 0; i < pi; i++ {
			p := h.Ptr(b, i)
			if _, ok := visit(p); !ok {
				return nil, fmt.Errorf("gcalgo: pointer %d of object %d refers to %d, not a live object base", i, b, p)
			}
		}
		ptrs += pi
		data += object.Delta(hdr)
	}

	g := &Graph{}
	if len(roots) > 0 {
		g.Roots = make([]int, len(roots))
		for ri, r := range roots {
			g.Roots[ri], _ = visit(r)
		}
	}
	if len(queue) > 0 {
		g.Nodes = make([]Node, len(queue))
	}
	ptrArena := make([]int, ptrs)
	dataArena := make([]object.Word, data)
	for ni, b := range queue {
		hdr := mem[b]
		pi, delta := object.Pi(hdr), object.Delta(hdr)
		n := &g.Nodes[ni]
		n.Pi, n.Delta = pi, delta
		if pi > 0 {
			n.Ptrs, ptrArena = ptrArena[:pi:pi], ptrArena[pi:]
			for i := range n.Ptrs {
				n.Ptrs[i], _ = visit(h.Ptr(b, i))
			}
		}
		if delta > 0 {
			n.Data, dataArena = dataArena[:delta:delta], dataArena[delta:]
			copy(n.Data, mem[object.DataSlot(b, pi, 0):])
		}
	}
	return g, nil
}

// LiveWords returns the total heap words occupied by the graph's objects.
func (g *Graph) LiveWords() int {
	w := 0
	for _, n := range g.Nodes {
		w += object.Size(n.Pi, n.Delta)
	}
	return w
}

// Equal reports the first difference between two canonical graphs, or nil if
// they are identical.
func (g *Graph) Equal(o *Graph) error {
	if len(g.Roots) != len(o.Roots) {
		return fmt.Errorf("gcalgo: root count differs: %d vs %d", len(g.Roots), len(o.Roots))
	}
	for i := range g.Roots {
		if g.Roots[i] != o.Roots[i] {
			return fmt.Errorf("gcalgo: root %d differs: node %d vs %d", i, g.Roots[i], o.Roots[i])
		}
	}
	if len(g.Nodes) != len(o.Nodes) {
		return fmt.Errorf("gcalgo: node count differs: %d vs %d", len(g.Nodes), len(o.Nodes))
	}
	for i := range g.Nodes {
		a, b := &g.Nodes[i], &o.Nodes[i]
		if a.Pi != b.Pi || a.Delta != b.Delta {
			return fmt.Errorf("gcalgo: node %d shape differs: (π=%d,δ=%d) vs (π=%d,δ=%d)", i, a.Pi, a.Delta, b.Pi, b.Delta)
		}
		for j := range a.Ptrs {
			if a.Ptrs[j] != b.Ptrs[j] {
				return fmt.Errorf("gcalgo: node %d pointer %d differs: %d vs %d", i, j, a.Ptrs[j], b.Ptrs[j])
			}
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				return fmt.Errorf("gcalgo: node %d data %d differs: %#x vs %#x", i, j, a.Data[j], b.Data[j])
			}
		}
	}
	return nil
}

// VerifyPreserved checks that h (after some collector ran on it) holds
// exactly the logical graph captured in before and that the heap's
// structural invariants hold. It does not require perfect compaction, so it
// also verifies the chunked and LAB-based software baselines, which
// legitimately leave filler objects in tospace.
func VerifyPreserved(before *Graph, h *heap.Heap) error {
	if err := h.CheckIntegrity(); err != nil {
		return err
	}
	if holds(before, h) {
		return nil
	}
	// Build the heap's graph only to report the first difference.
	after, err := Snapshot(h)
	if err != nil {
		return err
	}
	return before.Equal(after)
}

// holds walks h breadth-first in Snapshot's order and reports whether it
// yields exactly before, node by node, without building a second Graph.
// It relies on CheckIntegrity having passed, so every root and pointer is
// nil or an object base in the current space.
func holds(before *Graph, h *heap.Heap) bool {
	roots := h.Roots()
	if len(roots) != len(before.Roots) {
		return false
	}
	base, mem := h.Base(h.CurSpace()), h.Mem()
	// index[a-base] is i+1 once the object at a is node i.
	index := make([]int32, h.AllocPtr()-base)
	queue := make([]object.Addr, 0, len(before.Nodes))
	// visit returns p's node index (-1 for nil); ok is false when p would
	// be one node more than before has.
	visit := func(p object.Addr) (i int, ok bool) {
		if p == object.NilPtr {
			return -1, true
		}
		if index[p-base] == 0 {
			if len(queue) == cap(queue) {
				return 0, false
			}
			queue = append(queue, p)
			index[p-base] = int32(len(queue))
		}
		return int(index[p-base]) - 1, true
	}
	for ri, r := range roots {
		if i, ok := visit(r); !ok || i != before.Roots[ri] {
			return false
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		b, n := queue[qi], &before.Nodes[qi]
		hdr := mem[b]
		if object.Pi(hdr) != n.Pi || object.Delta(hdr) != n.Delta || len(n.Ptrs) != n.Pi || len(n.Data) != n.Delta {
			return false
		}
		for i, want := range n.Ptrs {
			if got, ok := visit(h.Ptr(b, i)); !ok || got != want {
				return false
			}
		}
		d := object.DataSlot(b, n.Pi, 0)
		if !slices.Equal(n.Data, mem[d:d+object.Addr(n.Delta)]) {
			return false
		}
	}
	return len(queue) == len(before.Nodes)
}

// VerifyCollection checks that h (after some collector ran on it) holds
// exactly the logical graph captured in before, that the heap's structural
// invariants hold, and that the space is perfectly compacted (allocation
// pointer equals base plus live words). It is the shared oracle for all
// collectors in this repository.
func VerifyCollection(before *Graph, h *heap.Heap) error {
	if err := VerifyPreserved(before, h); err != nil {
		return err
	}
	want := h.Base(h.CurSpace()) + object.Addr(before.LiveWords())
	if h.AllocPtr() != want {
		return fmt.Errorf("gcalgo: imperfect compaction: alloc pointer %d, want %d (live words %d)",
			h.AllocPtr(), want, before.LiveWords())
	}
	return nil
}
