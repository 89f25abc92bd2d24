package heap

import (
	"fmt"

	"hwgc/internal/object"
)

// State is the complete serializable state of a Heap: the raw word array
// (both semispaces plus the reserved nil word), the space roles, the bump
// pointer, and the root set. It is a plain-data mirror of Heap used by the
// snapshot subsystem; a State round-trips through FromState to a heap that
// behaves identically.
type State struct {
	Semi     int
	Cur      int
	Alloc    object.Addr
	AllocCnt int64
	Roots    []object.Addr
	Mem      []object.Word
}

// CaptureState returns the heap's state without copying it: Mem and Roots
// are the heap's own slices, valid until the heap is next written.
func (h *Heap) CaptureState() *State {
	return &State{
		Semi:     h.semi,
		Cur:      h.cur,
		Alloc:    h.alloc,
		AllocCnt: h.allocCnt,
		Roots:    h.roots,
		Mem:      h.mem,
	}
}

// FromState reconstructs a heap from a captured state, validating the
// structural invariants (sizes, space index, pointer bounds) so a corrupt
// or adversarial snapshot cannot produce a heap that panics on first use.
// The heap adopts s.Mem and s.Roots as its own, without copying them.
func FromState(s *State) (*Heap, error) {
	if s == nil {
		return nil, fmt.Errorf("heap: nil state")
	}
	if s.Semi < object.HeaderWords+1 {
		return nil, fmt.Errorf("heap: state semispace %d too small", s.Semi)
	}
	if len(s.Mem) != 1+2*s.Semi {
		return nil, fmt.Errorf("heap: state memory has %d words, want %d", len(s.Mem), 1+2*s.Semi)
	}
	if s.Cur != 0 && s.Cur != 1 {
		return nil, fmt.Errorf("heap: state current space %d out of range", s.Cur)
	}
	h := &Heap{
		mem:      s.Mem,
		semi:     s.Semi,
		cur:      s.Cur,
		alloc:    s.Alloc,
		allocCnt: s.AllocCnt,
		roots:    s.Roots,
	}
	if s.Alloc < h.Base(s.Cur) || s.Alloc > h.Limit(s.Cur) {
		return nil, fmt.Errorf("heap: state alloc pointer %d outside space %d", s.Alloc, s.Cur)
	}
	for i, r := range h.roots {
		if int(r) >= len(h.mem) {
			return nil, fmt.Errorf("heap: state root %d (%d) outside memory", i, r)
		}
	}
	return h, nil
}
