package machine

import (
	"hwgc/internal/mem"
	"hwgc/internal/object"
)

// coreState enumerates the micro-states of a GC core. Each state corresponds
// to a group of micro-instructions of the prototype's 180-word microprogram;
// a core executes (at most) one state action per clock cycle, but cheap
// register operations and uncontended lock micro-operations are folded into
// the same cycle as the operation they accompany, matching the paper's
// statement that synchronization operations incur no clock-cycle penalty in
// the uncontended case.
type coreState int

const (
	sIdle           coreState = iota // waiting for work / for the init barrier
	sStartup                         // Core 1 only: stop main processor, flush caches
	sRoots                           // Core 1 only: evacuate root-referenced objects
	sGrabScan                        // acquire scan lock, pop gray header / detect termination
	sScanHdrIssue                    // FIFO miss: issue header load at scan (holding scan lock)
	sScanHdrWait                     // FIFO miss: wait for header load (holding scan lock)
	sPtrLoad                         // issue body load of the next pointer slot
	sPtrLoadWait                     // wait for the pointer slot value
	sChildPeekIssue                  // optimization: unlocked header load of the child
	sChildPeekWait                   //
	sChildLock                       // acquire header lock of the child
	sChildHdrIssue                   // issue locked header load of the child
	sChildHdrWait                    // wait for the child's header
	sFreeAcquire                     // child unmarked: acquire free lock
	sEvacGrayStore                   // store gray header into the new tospace frame
	sEvacFwdStore                    // store mark + forwarding pointer into the child
	sPtrStore                        // store the updated pointer into the tospace copy
	sDataLoad                        // issue body load of the next data word
	sDataWait                        // wait for the data word (issues the next load when possible)
	sDataStore                       // retry a blocked data body store
	sBlacken                         // store the final header of the tospace copy
	sDone                            // terminated; waiting for the final barrier
)

// Barrier identifiers.
const (
	barrierInit = iota // released when Core 1 has initialized scan/free and evacuated the roots
	barrierDone        // released when every core has detected termination
)

// core is one microprogrammed GC core. All fields are driven exclusively by
// the machine's single-threaded cycle loop.
type core struct {
	id int
	m  *Machine
	st coreState

	// Registers describing the object currently being scanned.
	objTo    object.Addr // tospace frame base
	backlink object.Addr // fromspace original base
	attrs    object.Word // gray header word (attribute source for blackening)
	pi       int
	delta    int
	bodyPos  int         // current body word index (pointer area first, then data)
	bodyEnd  int         // end of this work unit (whole body, or one stride)
	dataWord object.Word // data word held across a blocked body store

	// Registers for the child currently being resolved.
	childPtr object.Addr // fromspace address of the child
	childHdr object.Word // child's fromspace header
	newPtr   object.Addr // resolved tospace address to install
	evacAddr object.Addr // tospace frame allocated for the child
	grayHdr  object.Word // gray header to install in the new frame

	// Root processing (Core 1 only).
	rootIdx     int
	inRoots     bool
	startupLeft int64

	// First machine cycle at which a load-wait step can make progress; the
	// cycle loop skips the core's step while m.cycle < sleepUntil (the
	// skipped cycles' stall counts were added up front, see stallOnLoad).
	sleepUntil int64

	stats CoreStats
}

// step advances the core by one clock cycle.
func (c *core) step() {
	switch c.st {
	case sIdle:
		// Cores other than Core 1 wait at the synchronizing
		// micro-instruction until Core 1 has initialized scan and free and
		// evacuated the roots (Section V-C, barrier synchronization).
		if c.m.sb.Barrier(barrierInit, c.id) {
			c.st = sGrabScan
		}

	case sStartup:
		c.startupLeft--
		if c.startupLeft <= 0 {
			c.inRoots = true
			c.rootIdx = 0
			c.st = sRoots
		}

	case sRoots:
		c.stepRoots()

	case sGrabScan:
		c.grabScan()

	case sScanHdrIssue:
		c.issueScanHdr()

	case sScanHdrWait:
		hdr, doneAt, ok := c.m.mem.PollLoad(c.id, mem.HeaderLoad)
		if !ok {
			c.stallOnLoad(doneAt, &c.stats.HeaderLoadStall)
			return
		}
		c.m.hc.Update(c.m.sb.Scan(), hdr)
		c.beginObject(hdr)

	case sPtrLoad:
		c.issuePtrLoad()

	case sPtrLoadWait:
		w, doneAt, ok := c.m.mem.PollLoad(c.id, mem.BodyLoad)
		if !ok {
			c.stallOnLoad(doneAt, &c.stats.BodyLoadStall)
			return
		}
		c.childPtr = object.Addr(w)
		c.stats.PointersSeen++
		c.beginChild()

	case sChildPeekIssue:
		c.issueChildPeek()

	case sChildPeekWait:
		hdr, doneAt, ok := c.m.mem.PollLoad(c.id, mem.HeaderLoad)
		if !ok {
			c.stallOnLoad(doneAt, &c.stats.HeaderLoadStall)
			return
		}
		// Note: unlike the locked header read, the peek result must NOT be
		// installed in the header cache. The peek races the child's
		// evacuation by another core: its memory load can return the old
		// (unmarked) header after the evacuator has already updated the
		// cache with the forwarding header, and installing the stale value
		// would let a later locked read hit it and evacuate the object a
		// second time. Under the header lock no such writer can exist.
		c.consumePeekHdr(hdr)

	case sChildLock:
		c.tryLockChild()

	case sChildHdrIssue:
		c.issueChildHdr()

	case sChildHdrWait:
		hdr, doneAt, ok := c.m.mem.PollLoad(c.id, mem.HeaderLoad)
		if !ok {
			c.stallOnLoad(doneAt, &c.stats.HeaderLoadStall)
			return
		}
		c.m.hc.Update(c.childPtr, hdr)
		c.consumeChildHdr(hdr)

	case sFreeAcquire:
		c.tryFree()

	case sEvacGrayStore:
		c.issueEvacGrayStore()

	case sEvacFwdStore:
		c.issueEvacFwdStore()

	case sPtrStore:
		c.issuePtrStore()

	case sDataLoad:
		c.issueDataLoad()

	case sDataWait:
		w, doneAt, ok := c.m.mem.PollLoad(c.id, mem.BodyLoad)
		if !ok {
			c.stallOnLoad(doneAt, &c.stats.BodyLoadStall)
			return
		}
		c.dataWord = w
		c.storeDataWord()

	case sDataStore:
		c.storeDataWord()

	case sBlacken:
		blk := object.BlackHeader(c.attrs)
		if !c.m.mem.IssueStore(c.id, mem.HeaderStore, c.objTo, blk) {
			c.stats.HeaderStoreStall++
			return
		}
		c.m.hc.Update(c.objTo, blk)
		c.stats.ObjectsScanned++
		if c.m.mut != nil {
			c.m.lastWork = c.m.cycle
		}
		c.st = sGrabScan

	case sDone:
		// Poll the final barrier so the machine can observe completion.
		c.m.sb.Barrier(barrierDone, c.id)
	}
}

// stallOnLoad accounts one stalled cycle waiting on a load port; doneAt is
// the load's completion cycle as reported by PollLoad (0 while it awaits
// acceptance). Once the load has been accepted its completion cycle is
// fixed, so the core's remaining stall cycles are known: they are added to
// the counter up front and the core sleeps — the cycle loop skips its step —
// until the cycle the data becomes visible. The accounting is arithmetic
// identical to stepping through every waiting cycle; like the event-driven
// fast-forward it is disabled under a probe, a concurrent mutator, or
// NoFastForward (m.microSleep).
func (c *core) stallOnLoad(doneAt int64, counter *int64) {
	*counter++
	if doneAt > 0 && c.m.microSleep {
		// The memory clock has not ticked for this machine cycle yet, so the
		// load completes during the tick of machine cycle c.m.cycle+d-1 and
		// the step of cycle c.m.cycle+d consumes it; the d waiting cycles are
		// c.m.cycle .. c.m.cycle+d-1, of which one is counted above.
		if d := doneAt - c.m.mem.Cycle(); d > 1 {
			*counter += d - 1
			c.sleepUntil = c.m.cycle + d
		}
	}
}

// stepRoots processes one root slot per cycle. Core 1 accesses the main
// processor's registers directly (Section V-E), so reading and rewriting a
// root slot costs a cycle but no memory traffic; evacuating the referenced
// object uses the regular child-resolution path.
func (c *core) stepRoots() {
	roots := c.m.heap.Roots()
	if c.rootIdx >= len(roots) {
		// Root evacuation finished: release the other cores into the scan
		// loop. Core 1 itself proceeds once the barrier reports complete,
		// which is immediate because all other cores arrived while waiting.
		c.inRoots = false
		if c.m.sb.Barrier(barrierInit, c.id) {
			c.st = sGrabScan
		} else {
			c.st = sIdle
		}
		return
	}
	c.childPtr = roots[c.rootIdx]
	if c.childPtr == object.NilPtr {
		c.rootIdx++
		return
	}
	c.stats.PointersSeen++
	c.beginChild()
}

// grabScan executes the scan-lock critical section of the main scanning
// loop. In the uncontended FIFO-hit case the whole sequence — acquire the
// lock, read the gray header, advance scan, release the lock — completes in
// a single cycle, matching the hardware where lock micro-operations execute
// in parallel with other micro-operations.
func (c *core) grabScan() {
	sb := c.m.sb
	// The scan and free registers can be read by all cores simultaneously;
	// only modifying them requires the lock. A core that observes an empty
	// work list therefore idles without contending for the scan lock — it
	// clears its busy bit and atomically checks the termination condition
	// (Section IV): scan == free and no core currently scanning an object.
	if sb.Scan() == sb.Free() {
		c.m.emptyObserved = true
		sb.SetBusy(c.id, false)
		if sb.AllIdle() {
			c.st = sDone
			c.m.doneCount++
			sb.Barrier(barrierDone, c.id)
		}
		return
	}
	if !sb.TryAcquireScan(c.id) {
		c.stats.ScanLockStall++
		return
	}
	scan, free := sb.Scan(), sb.Free()
	if scan == free {
		// Another core consumed the last gray object between our unlocked
		// check and the acquisition.
		c.m.emptyObserved = true
		sb.ReleaseScan(c.id)
		sb.SetBusy(c.id, false)
		if sb.AllIdle() {
			c.st = sDone
			c.m.doneCount++
			sb.Barrier(barrierDone, c.id)
		}
		return
	}
	sb.SetBusy(c.id, true)
	if c.m.scanFrameValid {
		// Stride mode: the current frame's header is already held in the
		// coprocessor's scan-state registers; dispatch its next stride
		// without any header access.
		c.dispatchStride(c.m.scanFrameHdr)
		return
	}
	if !c.m.cfg.DisableFIFO {
		if hdr, ok := c.m.fifo.PopIf(scan); ok {
			c.stats.FIFOHits++
			c.beginObject(hdr)
			return
		}
		c.stats.FIFOMisses++
	}
	// FIFO miss: the gray header must be loaded from memory while the scan
	// lock is held — scan cannot be advanced before the object's size is
	// known. These loads prolong the critical section; with an overflowing
	// FIFO they dominate (the paper's cup benchmark).
	c.issueScanHdr()
}

func (c *core) issueScanHdr() {
	if hdr, ok := c.m.hc.Lookup(c.m.sb.Scan()); ok {
		c.beginObject(hdr)
		return
	}
	if !c.m.mem.IssueLoad(c.id, mem.HeaderLoad, c.m.sb.Scan()) {
		c.stats.HeaderLoadStall++
		c.st = sScanHdrIssue
		return
	}
	c.st = sScanHdrWait
}

// beginObject consumes a gray tospace header. In whole-object mode it
// advances scan past the object, releases the scan lock and starts
// processing the body; in stride mode (Section VII extension) it latches the
// header into the coprocessor's scan-state registers and dispatches the
// first stride.
func (c *core) beginObject(hdr object.Word) {
	if !object.GrayBit(hdr) {
		// A black-at-birth frame allocated by the concurrent mutator: it
		// holds only tospace pointers and needs no copying — step over it.
		sb := c.m.sb
		scan := sb.Scan()
		sb.SetScan(c.id, scan+object.Addr(object.SizeWords(hdr)))
		sb.ReleaseScan(c.id)
		if c.m.mut != nil {
			c.m.mut.stats.FramesSkipped++
			c.m.lastWork = c.m.cycle
		}
		c.st = sGrabScan
		return
	}
	if c.m.cfg.StrideWords > 0 {
		c.m.scanFrameValid = true
		c.m.scanFrameHdr = hdr
		c.m.scanOff = 0
		c.dispatchStride(hdr)
		return
	}
	sb := c.m.sb
	scan := sb.Scan()
	c.loadFrameRegs(scan, hdr)
	c.bodyPos = 0
	c.bodyEnd = c.pi + c.delta
	sb.SetScan(c.id, scan+object.Addr(object.SizeWords(hdr)))
	sb.ReleaseScan(c.id)
	c.advanceBody()
}

// loadFrameRegs fills the per-core object registers from a gray header.
func (c *core) loadFrameRegs(objTo object.Addr, hdr object.Word) {
	c.objTo = objTo
	c.attrs = hdr
	c.backlink = object.Link(hdr)
	c.pi = object.Pi(hdr)
	c.delta = object.Delta(hdr)
}

// dispatchStride hands the calling core the next stride of the frame at
// scan: up to StrideWords body words. The final stride advances the scan
// pointer past the frame. The core holds the scan lock on entry and stalls
// (holding it) when the stride completion table is full.
func (c *core) dispatchStride(hdr object.Word) {
	sb := c.m.sb
	scan := sb.Scan()
	body := object.BodyWords(hdr)
	start := c.m.scanOff
	end := start + c.m.cfg.StrideWords
	if end > body {
		end = body
	}
	final := end == body
	if !c.m.strides.Dispatch(scan, hdr, final) {
		// Completion table full: stall in place holding the scan lock, as
		// the hardware CAM would. Other cores drain it independently.
		c.stats.StrideTableStall++
		return
	}
	c.stats.Strides++
	c.loadFrameRegs(scan, hdr)
	c.bodyPos = start
	c.bodyEnd = end
	if final {
		sb.SetScan(c.id, scan+object.Addr(object.SizeWords(hdr)))
		c.m.scanFrameValid = false
		c.m.scanOff = 0
	} else {
		c.m.scanOff = end
	}
	sb.ReleaseScan(c.id)
	c.advanceBody()
}

// advanceBody continues the current work unit at bodyPos: pointer slots
// first, then data words, then completion.
func (c *core) advanceBody() {
	switch {
	case c.bodyPos >= c.bodyEnd:
		c.finishWorkUnit()
	case c.bodyPos < c.pi:
		c.issuePtrLoad()
	default:
		c.issueDataLoad()
	}
}

// finishWorkUnit ends a work unit: in whole-object mode the object is
// blackened; in stride mode only the last outstanding stride blackens.
func (c *core) finishWorkUnit() {
	if c.m.cfg.StrideWords <= 0 {
		c.st = sBlacken
		return
	}
	if c.m.strides.Complete(c.objTo) {
		c.st = sBlacken
		return
	}
	c.st = sGrabScan
}

func (c *core) issuePtrLoad() {
	if !c.m.mem.IssueLoad(c.id, mem.BodyLoad, object.PtrSlot(c.backlink, c.bodyPos)) {
		c.stats.BodyLoadStall++
		c.st = sPtrLoad
		return
	}
	c.st = sPtrLoadWait
}

// beginChild starts resolving childPtr to its tospace address.
func (c *core) beginChild() {
	if c.childPtr == object.NilPtr {
		c.newPtr = object.NilPtr
		c.finishPtr()
		return
	}
	if c.m.cfg.OptUnlockedMarkRead {
		c.issueChildPeek()
		return
	}
	c.tryLockChild()
}

func (c *core) issueChildPeek() {
	if hdr, ok := c.m.hc.Lookup(c.childPtr); ok {
		c.consumePeekHdr(hdr)
		return
	}
	if !c.m.mem.IssueLoad(c.id, mem.HeaderLoad, c.childPtr) {
		c.stats.HeaderLoadStall++
		c.st = sChildPeekIssue
		return
	}
	c.st = sChildPeekWait
}

// consumePeekHdr acts on an unlocked header read of the child (the Section
// VI-B optimization): marked children resolve without touching the header
// lock; unmarked children fall back to the locking read.
func (c *core) consumePeekHdr(hdr object.Word) {
	if object.Marked(hdr) {
		// Fast path: the mark bit is already set, so the forwarding pointer
		// is stable and no header lock is needed.
		c.newPtr = object.Link(hdr)
		c.finishPtr()
		return
	}
	c.tryLockChild()
}

func (c *core) tryLockChild() {
	if !c.m.sb.TryLockHeader(c.id, c.childPtr) {
		c.stats.HeaderLockStall++
		c.st = sChildLock
		return
	}
	c.issueChildHdr()
}

func (c *core) issueChildHdr() {
	if hdr, ok := c.m.hc.Lookup(c.childPtr); ok {
		c.consumeChildHdr(hdr)
		return
	}
	if !c.m.mem.IssueLoad(c.id, mem.HeaderLoad, c.childPtr) {
		c.stats.HeaderLoadStall++
		c.st = sChildHdrIssue
		return
	}
	c.st = sChildHdrWait
}

// consumeChildHdr acts on the locked header read of the child: marked
// children resolve to their forwarding pointer; unmarked children are
// evacuated.
func (c *core) consumeChildHdr(hdr object.Word) {
	if object.Marked(hdr) {
		// Already evacuated (possibly by another core while we waited for
		// the header lock): follow the forwarding pointer.
		c.newPtr = object.Link(hdr)
		c.m.sb.UnlockHeader(c.id)
		c.finishPtr()
		return
	}
	c.childHdr = hdr
	c.tryFree()
}

// tryFree evacuates the (unmarked, header-locked) child: acquire the free
// lock, allocate the tospace frame, and publish it.
//
// The paper's pseudo-code installs the forwarding pointer, then the tospace
// backlink, then increments free, all under the free lock. With a single
// header-store port the two header stores take two cycles, so we reorder
// them to keep the free lock held for a single cycle (matching the
// prototype's negligible free-lock stall counts): the gray tospace header is
// stored first, together with the free increment and release; the forwarding
// store into the child follows while only the header lock is still held.
// This is semantically equivalent — the child's header is protected by the
// header lock until the forwarding pointer is on its way, and the memory
// access scheduler's comparator array delays any header load from either
// address until the corresponding store has committed.
func (c *core) tryFree() {
	sb := c.m.sb
	if !sb.TryAcquireFree(c.id) {
		c.stats.FreeLockStall++
		c.st = sFreeAcquire
		return
	}
	c.evacAddr = sb.Free()
	c.grayHdr = object.GrayHeader(c.childHdr, c.childPtr)
	c.issueEvacGrayStore()
}

func (c *core) issueEvacGrayStore() {
	size := object.Addr(object.SizeWords(c.childHdr))
	if c.evacAddr+size > c.m.toLimit {
		c.m.failf("machine: tospace overflow evacuating object %d (size %d) at free %d, limit %d",
			c.childPtr, size, c.evacAddr, c.m.toLimit)
		return
	}
	if !c.m.mem.IssueStore(c.id, mem.HeaderStore, c.evacAddr, c.grayHdr) {
		c.stats.HeaderStoreStall++
		c.st = sEvacGrayStore
		return
	}
	c.m.hc.Update(c.evacAddr, c.grayHdr)
	sb := c.m.sb
	if c.m.fifo.Push(c.evacAddr, c.grayHdr) {
		c.m.fifoDrops++
	}
	sb.SetFree(c.id, c.evacAddr+size)
	sb.ReleaseFree(c.id)
	c.st = sEvacFwdStore
}

func (c *core) issueEvacFwdStore() {
	fwdHdr := object.WithMark(c.childHdr, c.evacAddr)
	if !c.m.mem.IssueStore(c.id, mem.HeaderStore, c.childPtr, fwdHdr) {
		c.stats.HeaderStoreStall++
		c.st = sEvacFwdStore
		return
	}
	c.m.hc.Update(c.childPtr, fwdHdr)
	c.m.sb.UnlockHeader(c.id)
	c.newPtr = c.evacAddr
	c.stats.ObjectsEvacuated++
	c.finishPtr()
}

// finishPtr installs the resolved pointer: into the root slot when Core 1 is
// evacuating roots, or into the tospace copy's pointer area otherwise.
func (c *core) finishPtr() {
	if c.inRoots {
		c.m.heap.SetRoot(c.rootIdx, c.newPtr)
		c.rootIdx++
		c.st = sRoots
		return
	}
	c.issuePtrStore()
}

func (c *core) issuePtrStore() {
	if !c.m.mem.IssueStore(c.id, mem.BodyStore, object.PtrSlot(c.objTo, c.bodyPos), object.Word(c.newPtr)) {
		c.stats.BodyStoreStall++
		c.st = sPtrStore
		return
	}
	c.stats.WordsCopied++
	c.bodyPos++
	c.advanceBody()
}

func (c *core) issueDataLoad() {
	if !c.m.mem.IssueLoad(c.id, mem.BodyLoad, object.DataSlot(c.backlink, c.pi, c.bodyPos-c.pi)) {
		c.stats.BodyLoadStall++
		c.st = sDataLoad
		return
	}
	c.st = sDataWait
}

// storeDataWord forwards the held data word to the tospace copy and, when
// possible, issues the next data load in the same cycle (the load buffer was
// freed by the take that preceded this call).
func (c *core) storeDataWord() {
	if !c.m.mem.IssueStore(c.id, mem.BodyStore, object.DataSlot(c.objTo, c.pi, c.bodyPos-c.pi), c.dataWord) {
		c.stats.BodyStoreStall++
		c.st = sDataStore
		return
	}
	c.stats.WordsCopied++
	c.bodyPos++
	if c.bodyPos < c.bodyEnd {
		c.issueDataLoad()
		return
	}
	c.finishWorkUnit()
}
