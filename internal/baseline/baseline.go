// Package baseline implements software-parallel compacting collectors on
// stock shared memory, corresponding to the approaches the paper surveys in
// Section III — and to the "ideal" fine-grained approach the paper deems
// prohibitively expensive without hardware support (Section I).
//
// All four collectors are real goroutine-parallel copying collectors over
// the same heap and object layout as the simulated coprocessor:
//
//   - finegrained: the paper's own algorithm implemented with software
//     atomics — shared scan and free pointers, per-object CAS claiming. It
//     distributes work at object granularity like the coprocessor, but pays
//     several synchronization operations per object.
//   - chunked: Imai & Tick's chunk-based copying — the heap's tospace is
//     carved into fixed-size chunks; workers scan whole chunks and allocate
//     into private chunks, trading fragmentation for synchronization only
//     at chunk granularity.
//   - workpackets: Ossia et al.'s work packets — gray references travel in
//     fixed-capacity packets through shared pools, with per-worker local
//     allocation buffers.
//   - stealing: Flood et al.'s work stealing — per-worker deques of gray
//     references, idle workers steal, with per-worker local allocation
//     buffers.
//
// Every collector counts its synchronization operations, so the benchmark
// harness can quantify the trade-off the paper's hardware removes: sync
// operations per object versus work-distribution granularity and
// fragmentation. Each collector's output is checked by the same logical-
// graph oracle as the coprocessor's; the chunk/LAB-based collectors leave
// filler objects in the holes they create, so the heap remains walkable and
// the wasted words are measurable.
package baseline

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hwgc/internal/heap"
	"hwgc/internal/object"
)

// SyncCounts tallies the synchronization operations a collector performed.
// Plain loads/stores of heap words are not counted; the point is to measure
// the operations that are expensive on stock shared-memory machines
// (Section V-A: coherency traffic, write ordering, memory barriers).
type SyncCounts struct {
	AtomicLoads  int64 // atomic header/pointer loads
	AtomicStores int64 // atomic header publications
	CAS          int64 // compare-and-swap attempts
	CASRetries   int64 // failed CAS attempts (contention)
	FetchAdds    int64 // atomic fetch-and-add allocations / counters
	MutexOps     int64 // lock/unlock pairs on shared pools and deques
	SpinWaits    int64 // spin iterations waiting for another worker's store
}

// Total returns the total number of synchronization operations.
func (s SyncCounts) Total() int64 {
	return s.AtomicLoads + s.AtomicStores + s.CAS + s.FetchAdds + s.MutexOps
}

func (s *SyncCounts) add(o SyncCounts) {
	s.AtomicLoads += o.AtomicLoads
	s.AtomicStores += o.AtomicStores
	s.CAS += o.CAS
	s.CASRetries += o.CASRetries
	s.FetchAdds += o.FetchAdds
	s.MutexOps += o.MutexOps
	s.SpinWaits += o.SpinWaits
}

// Result describes one software-parallel collection.
type Result struct {
	Workers     int
	LiveObjects int64
	LiveWords   int64 // words of live objects (excludes fillers)
	WastedWords int64 // filler words lost to fragmentation (chunk/LAB leftovers)
	Elapsed     time.Duration
	Sync        SyncCounts
}

// Collector is a software-parallel compacting collector.
type Collector interface {
	// Name returns the registry name.
	Name() string
	// Description summarizes the work-distribution strategy.
	Description() string
	// Collect runs one full collection over h with the given number of
	// worker goroutines. On success the heap has been flipped; surviving
	// objects (plus any filler objects) occupy the bottom of the new space.
	Collect(h *heap.Heap, workers int) (Result, error)
}

var registry = map[string]Collector{}
var registryOrder []string

func register(c Collector) {
	registry[c.Name()] = c
	registryOrder = append(registryOrder, c.Name())
}

// Names returns the registered collector names in registration order.
func Names() []string { return append([]string(nil), registryOrder...) }

// ByName returns the named collector.
func ByName(name string) (Collector, error) {
	if c, ok := registry[name]; ok {
		return c, nil
	}
	all := Names()
	sort.Strings(all)
	return nil, fmt.Errorf("baseline: unknown collector %q (have %v)", name, all)
}

// cycle holds the shared state of one software collection over a heap.
type cycle struct {
	mem     []object.Word
	base    object.Addr
	limit   object.Addr
	free    atomic.Uint64 // next unallocated tospace word
	wasted  atomic.Int64  // filler words
	aborted atomic.Bool   // a worker hit a fatal error; spinners must bail out
	h       *heap.Heap
}

func newCycle(h *heap.Heap) *cycle {
	to := h.OtherSpace()
	c := &cycle{
		mem:   h.Mem(),
		base:  h.Base(to),
		limit: h.Limit(to),
		h:     h,
	}
	// Zero tospace: the fine-grained collector publishes frames through the
	// shared free pointer before their headers are written, so consumers
	// must be able to distinguish "not yet written" (zero) from stale
	// garbage of earlier cycles. The hardware needs no such pass — its
	// memory access scheduler orders header loads after pending header
	// stores instead.
	for i := c.base; i < c.limit; i++ {
		c.mem[i] = 0
	}
	c.free.Store(uint64(c.base))
	return c
}

// bump allocates size words from the shared free pointer with fetch-add.
func (c *cycle) bump(size int, sc *SyncCounts) (object.Addr, bool) {
	sc.FetchAdds++
	end := c.free.Add(uint64(size))
	if end > uint64(c.limit) {
		return 0, false
	}
	return object.Addr(end) - object.Addr(size), true
}

// errTospaceOverflow is produced when an allocation exceeds tospace.
var errTospaceOverflow = fmt.Errorf("baseline: tospace overflow")

// lab is a thread-local allocation buffer carved out of the shared tospace
// with a single fetch-add per refill (Flood's "local allocation buffers",
// Ossia's allocation caches). Leftover words are closed with a filler
// object; that waste is the fragmentation cost the paper's Section III
// discusses.
type lab struct {
	cur, end object.Addr
	size     int
}

func (l *lab) alloc(c *cycle, size int, sc *SyncCounts) (object.Addr, error) {
	if size > l.size || l.size-size == 1 {
		// Oversized object (or one that would leave an unfillable one-word
		// hole in a fresh LAB): dedicated allocation straight from the
		// shared pointer.
		a, ok := c.bump(size, sc)
		if !ok {
			return 0, errTospaceOverflow
		}
		return a, nil
	}
	for {
		rem := int(l.end) - int(l.cur)
		if size <= rem && rem-size != 1 {
			a := l.cur
			l.cur += object.Addr(size)
			return a, nil
		}
		// Close the current LAB with a filler and refill. The guard above
		// ensures a fresh LAB always satisfies the object.
		l.close(c)
		a, ok := c.bump(l.size, sc)
		if !ok {
			return 0, errTospaceOverflow
		}
		l.cur, l.end = a, a+object.Addr(l.size)
	}
}

// close writes a filler object over the LAB's unused tail. The allocation
// discipline guarantees the remainder is never exactly one word.
func (l *lab) close(c *cycle) {
	rem := int(l.end) - int(l.cur)
	if rem <= 0 {
		return
	}
	writeFiller(c.mem, l.cur, rem)
	c.wasted.Add(int64(rem))
	l.cur = l.end
}

// writeFiller covers exactly `words` words at `at` with one or more
// unreachable filler objects. Fillers keep the space walkable so the heap
// integrity checker and the next collection's allocator see a well-formed
// space. Holes larger than the maximum object size are split; the split
// never leaves a one-word remainder.
func writeFiller(mem []object.Word, at object.Addr, words int) {
	if words < object.HeaderWords {
		panic(fmt.Sprintf("baseline: cannot write %d-word filler", words))
	}
	const maxFiller = object.HeaderWords + object.MaxDelta
	for words > 0 {
		n := words
		if n > maxFiller {
			n = maxFiller
			if words-n == 1 {
				n--
			}
		}
		mem[at] = object.Header{Pi: 0, Delta: n - object.HeaderWords}.Encode()
		mem[at+1] = 0
		for i := object.HeaderWords; i < n; i++ {
			mem[at+object.Addr(i)] = 0
		}
		at += object.Addr(n)
		words -= n
	}
}

// claimEvacuate resolves the fromspace object at p to its tospace address,
// evacuating it if this worker wins the claim race. The protocol is the
// standard software one (cf. Flood et al.):
//
//  1. atomically load the header; if marked, return the forwarding pointer;
//  2. if claimed-but-unfinished (gray), spin until the winner publishes;
//  3. otherwise CAS the gray bit in; the winner allocates, copies the whole
//     body, publishes the tospace copy's header with an atomic store, and
//     finally publishes mark+forwarding pointer with an atomic store.
//
// This is exactly the per-object synchronization the paper's hardware makes
// free: one atomic load plus (for the winner) one CAS and two publishing
// stores — or spinning for losers.
//
// With publishGray set (the fine-grained collector), the tospace header is
// published with the gray bit set so that it is guaranteed non-zero — the
// shared-work-list consumers detect "frame reserved but header not yet
// visible" by a zero word, and a π=0, δ=0 object's black header would
// encode to exactly zero. The scanning owner blackens the header when it has
// finished with the object, mirroring the hardware lifecycle of Fig. 4.
func claimEvacuate(c *cycle, p object.Addr, publishGray bool, alloc func(int) (object.Addr, error), sc *SyncCounts) (object.Addr, bool, error) {
	for {
		sc.AtomicLoads++
		hdr := atomic.LoadUint64(&c.mem[p])
		if object.Marked(hdr) {
			return object.Link(hdr), false, nil
		}
		if object.GrayBit(hdr) {
			// Another worker holds the claim; wait for the forwarding
			// pointer — unless the collection is being aborted, in which
			// case the winner may never publish it.
			if c.aborted.Load() {
				return 0, false, errTospaceOverflow
			}
			sc.SpinWaits++
			runtime.Gosched()
			continue
		}
		sc.CAS++
		if !atomic.CompareAndSwapUint64(&c.mem[p], hdr, hdr|grayClaim) {
			sc.CASRetries++
			continue
		}
		size := object.SizeWords(hdr)
		dst, err := alloc(size)
		if err != nil {
			c.aborted.Store(true)
			return 0, false, err
		}
		// Copy the body; pointer slots still refer to fromspace and will be
		// rewritten by whoever scans the gray copy.
		copy(c.mem[dst+object.HeaderWords:dst+object.Addr(size)],
			c.mem[p+object.HeaderWords:p+object.Addr(size)])
		c.mem[dst+1] = 0
		// Publish the copy's header, then the forwarding pointer.
		sc.AtomicStores += 2
		newHdr := object.BlackHeader(hdr)
		if publishGray {
			newHdr |= grayClaim
		}
		atomic.StoreUint64(&c.mem[dst], newHdr)
		atomic.StoreUint64(&c.mem[p], object.WithMark(hdr, dst))
		return dst, true, nil
	}
}

// grayClaim is the header bit used to claim an object during the software
// evacuation race (the same bit the hardware uses for tospace gray frames).
var grayClaim = object.Header{Gray: true}.Encode()

// scanObject rewrites the pointer slots of the (exclusively owned) tospace
// copy at dst, resolving each child through resolve. It returns the object's
// size in words.
func scanObject(c *cycle, dst object.Addr, resolve func(object.Addr) (object.Addr, error)) (int, error) {
	hdr := c.mem[dst]
	pi := object.Pi(hdr)
	for i := 0; i < pi; i++ {
		slot := object.PtrSlot(dst, i)
		child := object.Addr(c.mem[slot])
		if child == object.NilPtr {
			continue
		}
		fwd, err := resolve(child)
		if err != nil {
			return 0, err
		}
		c.mem[slot] = object.Word(fwd)
	}
	return object.SizeWords(hdr), nil
}

// processRoots splits the root slots among the workers; worker w resolves
// every root slot i with i % workers == w and rewrites it in place.
func processRoots(c *cycle, w, workers int, resolve func(object.Addr) (object.Addr, error)) error {
	roots := c.h.Roots()
	for i := w; i < len(roots); i += workers {
		if roots[i] == object.NilPtr {
			continue
		}
		fwd, err := resolve(roots[i])
		if err != nil {
			return err
		}
		c.h.SetRoot(i, fwd)
	}
	return nil
}

// finish flips the heap and assembles the common parts of the Result.
func (c *cycle) finish(workers int, start time.Time, liveObjects, liveWords int64, sc SyncCounts) Result {
	c.h.FinishCycle(object.Addr(c.free.Load()))
	return Result{
		Workers:     workers,
		LiveObjects: liveObjects,
		LiveWords:   liveWords,
		WastedWords: c.wasted.Load(),
		Elapsed:     time.Since(start),
		Sync:        sc,
	}
}

// firstErr returns the first non-nil error of a per-worker error slice.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// pool is a mutex-protected work pool with built-in idle-based termination
// detection, shared by the chunked and work-packet collectors. Get blocks
// (politely spinning) until work is available or every worker is idle.
type pool[T any] struct {
	mu      sync.Mutex
	items   []T
	idle    int
	workers int
	aborted *atomic.Bool // the owning cycle's abort flag
}

func newPool[T any](workers int, aborted *atomic.Bool) *pool[T] {
	return &pool[T]{workers: workers, aborted: aborted}
}

// Put adds an item. Never called by an idle worker.
func (p *pool[T]) Put(it T, sc *SyncCounts) {
	sc.MutexOps++
	p.mu.Lock()
	p.items = append(p.items, it)
	p.mu.Unlock()
}

// Get returns the next item, or done=true when the pool is empty and all
// workers are idle (global termination: only active workers create items).
func (p *pool[T]) Get(sc *SyncCounts) (it T, done bool) {
	sc.MutexOps++
	p.mu.Lock()
	registered := false
	for {
		if n := len(p.items); n > 0 {
			it = p.items[n-1]
			p.items = p.items[:n-1]
			if registered {
				p.idle--
			}
			p.mu.Unlock()
			return it, false
		}
		if !registered {
			p.idle++
			registered = true
		}
		if p.idle == p.workers || p.aborted.Load() {
			p.mu.Unlock()
			return it, true
		}
		p.mu.Unlock()
		runtime.Gosched()
		sc.MutexOps++
		p.mu.Lock()
	}
}
