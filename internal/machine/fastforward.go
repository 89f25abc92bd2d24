package machine

import (
	"math"

	"hwgc/internal/mem"
)

// Event-driven fast-forward.
//
// The cycle loop normally steps every core and ticks the memory scheduler
// once per simulated clock cycle. During memory-latency windows — and the
// long empty-work-list phases of the paper's Table I — whole stretches of
// cycles are "dead": every core's step does nothing but increment a stall
// counter, and the memory tick does nothing but advance the clock. The
// fast-forward detects such a configuration, computes the next cycle at
// which any state transition can occur (a load completing, a startup counter
// expiring, the store pipeline draining), and advances the machine to just
// before that cycle in one jump, accumulating the per-cause counters
// arithmetically.
//
// The invariant is strict bit-identity: a fast-forwarded collection produces
// exactly the Stats (total cycles, per-cause stall cycles, empty-work-list
// cycles, FIFO, memory and synchronization counters) and exactly the final
// heap image of the per-cycle stepped run. To guarantee it, a cycle is only
// classified as dead under conservative conditions:
//
//   - the memory scheduler is Quiescent: no request is awaiting acceptance,
//     so skipped ticks perform no arbitration and touch no memory counter
//     (cores stalled on a full store queue therefore disable fast-forward
//     implicitly — their queued store is unaccepted);
//   - every core is in a state whose step provably has no effect beyond its
//     stall counter: waiting for an accepted load, spinning on a lock held
//     by another core, observing an empty work list (with its busy bit
//     already cleared and termination not yet reached), idling at an
//     incomplete barrier, counting down startup, or done;
//   - no per-cycle probe is attached (internal/trace samples signals every
//     cycle) and no concurrent mutator is attached (it executes an operation
//     stream on its own port every cycle).
//
// Anything else — a core that could acquire a lock, take a ready load, or
// make any other transition — vetoes the jump for that cycle; the loop then
// steps normally, which is always correct.

// ffStall classifies what a dead core accumulates per skipped cycle.
type ffStall uint8

const (
	ffNone       ffStall = iota // idle / done / startup: no counter
	ffHeaderLoad                // waiting on an accepted header load
	ffBodyLoad                  // waiting on an accepted body load
	ffScanLock                  // spinning on the held scan lock
	ffHeaderLock                // spinning on a held header lock
	ffFreeLock                  // spinning on the held free lock
	ffEmpty                     // observing an empty work list
)

// ffInfinity marks a dead core with no wake-up event of its own (it can only
// be released by another core's progress).
const ffInfinity = int64(math.MaxInt64)

// deadCore reports whether core c's next steps are provably dead, and if so
// which counter it accumulates per skipped cycle and after how many further
// cycles (relative to now) its step first makes progress. A wakeIn of
// ffInfinity means the core only wakes through another core's transition.
func (m *Machine) deadCore(c *core) (kind ffStall, wakeIn int64, dead bool) {
	switch c.st {
	case sDone:
		// Re-registers its (already recorded) barrier arrival; no effect.
		return ffNone, ffInfinity, true

	case sIdle:
		// Blocked at the init barrier; dead while Core 1 has not arrived.
		if m.sb.BarrierComplete(barrierInit) {
			return 0, 0, false
		}
		return ffNone, ffInfinity, true

	case sStartup:
		// Pure countdown; the step that decrements startupLeft to zero
		// transitions to root processing.
		return ffNone, c.startupLeft, true

	case sGrabScan:
		sb := m.sb
		if sb.ScanOwner() == c.id {
			// Holding the scan lock (stride-table stall): its retry has side
			// effects we do not model arithmetically — step normally.
			return 0, 0, false
		}
		if sb.Scan() == sb.Free() {
			// Empty work list. The spin is only idempotent once the core has
			// cleared its own busy bit, and it transitions to sDone as soon
			// as every busy bit is clear.
			if sb.Busy(c.id) || sb.AllIdle() {
				return 0, 0, false
			}
			return ffEmpty, ffInfinity, true
		}
		if sb.ScanOwner() < 0 {
			return 0, 0, false // lock free: the core acquires it next step
		}
		return ffScanLock, ffInfinity, true

	case sScanHdrWait, sChildPeekWait, sChildHdrWait:
		if c.sleepUntil > m.cycle {
			// Sleeping: the stall cycles through sleepUntil-1 were already
			// added when the core went to sleep (core.stallOnLoad), so the
			// jump must not add them again.
			return ffNone, c.sleepUntil - m.cycle, true
		}
		if doneAt, ok := m.mem.LoadPending(c.id, mem.HeaderLoad); ok {
			// Completion at doneAt (memory clock) is observed by the step
			// one cycle later.
			return ffHeaderLoad, doneAt - m.mem.Cycle() + 1, true
		}
		return 0, 0, false

	case sPtrLoadWait, sDataWait:
		if c.sleepUntil > m.cycle {
			return ffNone, c.sleepUntil - m.cycle, true
		}
		if doneAt, ok := m.mem.LoadPending(c.id, mem.BodyLoad); ok {
			return ffBodyLoad, doneAt - m.mem.Cycle() + 1, true
		}
		return 0, 0, false

	case sChildLock:
		if m.sb.HeaderLockConflict(c.id, c.childPtr) {
			return ffHeaderLock, ffInfinity, true
		}
		return 0, 0, false

	case sFreeAcquire:
		if o := m.sb.FreeOwner(); o >= 0 && o != c.id {
			return ffFreeLock, ffInfinity, true
		}
		return 0, 0, false
	}

	// Root processing, issue retries and store stalls step normally: they
	// either make progress every cycle or depend on arbitration that the
	// quiescence check already vetoes.
	return 0, 0, false
}

// fastForward attempts one event-driven jump at the end of the current
// cycle. It is a no-op unless the whole machine is dead; then it advances
// the clock to one cycle before the next wake-up event, accumulating every
// skipped cycle's counters exactly as the stepped loop would have.
func (m *Machine) fastForward(maxCycles, scanEnd int64, emptyCycles *int64) {
	if !m.mem.Quiescent() {
		return
	}
	wakeIn := ffInfinity
	for i, c := range m.cores {
		kind, w, dead := m.deadCore(c)
		if !dead {
			return
		}
		m.ffKinds[i] = kind
		if w < wakeIn {
			wakeIn = w
		}
	}
	if scanEnd >= 0 {
		// Every core has terminated; the loop exits on the cycle the store
		// pipeline drains, so that cycle must run normally.
		if d := m.mem.LastInflightDoneAt(); d > 0 {
			if w := d - m.mem.Cycle(); w < wakeIn {
				wakeIn = w
			}
		}
	}
	if wakeIn == ffInfinity {
		// No event at all: a genuine livelock. Step normally into the
		// MaxCycles guard rather than jumping blindly.
		return
	}
	jump := wakeIn - 1 // resume one full cycle before the event fires
	if m.cycle+jump > maxCycles {
		jump = maxCycles - m.cycle // preserve the livelock abort cycle
	}
	if jump <= 0 {
		return
	}

	m.cycle += jump
	m.mem.FastForwardBy(jump)
	var scanConf, freeConf, hdrConf int64
	sawEmpty := false
	for i, c := range m.cores {
		switch m.ffKinds[i] {
		case ffHeaderLoad:
			c.stats.HeaderLoadStall += jump
		case ffBodyLoad:
			c.stats.BodyLoadStall += jump
		case ffScanLock:
			c.stats.ScanLockStall += jump
			scanConf += jump
		case ffHeaderLock:
			c.stats.HeaderLockStall += jump
			hdrConf += jump
		case ffFreeLock:
			c.stats.FreeLockStall += jump
			freeConf += jump
		case ffEmpty:
			sawEmpty = true
		}
		if c.st == sStartup {
			c.startupLeft -= jump
		}
	}
	if scanConf != 0 || freeConf != 0 || hdrConf != 0 {
		m.sb.AddConflictStalls(scanConf, freeConf, hdrConf)
	}
	if sawEmpty && scanEnd < 0 {
		*emptyCycles += jump
	}
	m.ffJumps++
	m.ffSkipped += jump
}

// FastForwardStats reports how many event-driven jumps the last (or current)
// collection performed and how many dead cycles they skipped. Both are zero
// when fast-forwarding was disabled or never applicable.
func (m *Machine) FastForwardStats() (jumps, skippedCycles int64) {
	return m.ffJumps, m.ffSkipped
}
