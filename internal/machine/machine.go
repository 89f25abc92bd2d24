package machine

import (
	"fmt"

	"hwgc/internal/heap"
	"hwgc/internal/mem"
	"hwgc/internal/object"
	"hwgc/internal/syncblock"
)

// Machine is one instance of the multi-core GC coprocessor attached to a
// heap. A Machine is reusable: each call to Collect runs one complete
// garbage collection cycle (the coprocessor stops the main processor for the
// whole cycle, Section V-B).
type Machine struct {
	cfg  Config
	heap *heap.Heap
	mem  *mem.Memory
	sb   *syncblock.SB
	fifo *headerFIFO
	hc   *headerCache

	// Scan-state registers for stride mode (guarded by the scan lock).
	strides        *strideTable
	scanFrameValid bool
	scanFrameHdr   object.Word
	scanOff        int

	// Concurrent-mode mutator port (nil in stop-the-world mode).
	mut        *mutCore
	mutStarted bool
	// mutBuiltin marks a mutator constructed from Config.MutatorOps (the
	// snapshot-able churn driver) rather than supplied to CollectConcurrent.
	mutBuiltin bool
	// lastWork is the cycle of the most recent marking progress (an object
	// blackened or a black-at-birth frame stepped over); scanEnd − lastWork
	// is the mark-termination latency reported in concurrent mode.
	lastWork int64

	cores         []*core
	coreBuf       []core // backing storage for cores, reused across Collects
	doneCount     int    // cores in sDone (they never leave it)
	cycle         int64
	fifoDrops     int64
	toLimit       object.Addr
	emptyObserved bool // some core sought work this cycle and found scan == free
	err           error

	// Cycle-loop state, held on the Machine (rather than as locals of
	// Collect) so a collection can be suspended between cycles, captured by
	// Snapshot and resumed bit-identically (see snapshot.go).
	phase       collectPhase
	maxCycles   int64 // livelock bound, fixed by BeginCollect
	scanStart   int64 // first cycle after root evacuation, -1 until known
	scanEnd     int64 // cycle every core detected termination, -1 until known
	emptyCycles int64 // accumulated empty-work-list cycles

	// Event-driven fast-forward state (see fastforward.go).
	ffKinds   []ffStall // per-core scratch, reused every dead cycle
	ffJumps   int64
	ffSkipped int64
	// microSleep allows individual cores waiting on an accepted load to
	// pre-account their stall cycles and skip their steps until the data
	// arrives (core.stallOnLoad). Gated exactly like fastForward, and
	// computed once per Collect.
	microSleep bool

	// probes holds the observers registered via AddProbe, invoked in
	// registration order after every cycle.
	probes []func(cycle int64, m *Machine)

	// NoFastForward forces per-cycle stepping even when no probe is
	// attached. The determinism suite uses it to check that fast-forwarded
	// collections are bit-identical to stepped ones. It deliberately lives
	// on the Machine rather than in Config: Stats embeds the Config, which
	// must not differ between the two modes.
	NoFastForward bool
}

// New creates a coprocessor over h.
func New(h *heap.Heap, cfg Config) (*Machine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		heap: h,
		mem:  mem.New(h.Mem(), memConfig(cfg)),
		sb:   syncblock.New(cfg.Cores),
		fifo: newHeaderFIFO(cfg.FIFOCapacity, cfg.DisableFIFO),
		hc:   newHeaderCache(cfg.HeaderCacheLines),
	}
	if cfg.StrideWords > 0 {
		m.strides = newStrideTable(cfg.Cores)
	}
	return m, nil
}

// memConfig maps the machine configuration onto the memory model's. It is
// the single source of truth for both New and RestoreMachine.
func memConfig(cfg Config) mem.Config {
	return mem.Config{
		Latency:          cfg.MemLatency,
		ExtraLatency:     cfg.ExtraMemLatency,
		Bandwidth:        cfg.MemBandwidth,
		StoreQueueDepth:  cfg.MemStoreQueueDepth,
		Banks:            cfg.MemBanks,
		BankBusy:         cfg.MemBankBusy,
		Domains:          cfg.NUMADomains,
		RemotePenalty:    cfg.NUMARemotePenalty,
		DomainInterleave: cfg.NUMAInterleave,
		DomainBandwidth:  cfg.NUMABandwidth,
		L1Sets:           cfg.L1Sets,
		L1Ways:           cfg.L1Ways,
		L2Sets:           cfg.L2Sets,
		L2Ways:           cfg.L2Ways,
		MSHRs:            cfg.MSHRs,
		LineWords:        cfg.CacheLineWords,
	}
}

// Config returns the machine's effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// SB exposes the synchronization block (tests and tracing).
func (m *Machine) SB() *syncblock.SB { return m.sb }

// Mem exposes the memory scheduler (tests and tracing).
func (m *Machine) Mem() *mem.Memory { return m.mem }

// FIFODepth returns the current header FIFO occupancy (tracing).
func (m *Machine) FIFODepth() int { return m.fifo.Len() }

// Cycle returns the current clock cycle of the running collection.
func (m *Machine) Cycle() int64 { return m.cycle }

// CoreState returns a short description of core i's state (tracing).
func (m *Machine) CoreState(i int) string { return coreStateName(m.cores[i].st) }

// fail records a fatal simulation error; the cycle loop aborts on the next
// iteration.
func (m *Machine) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// collectPhase tracks where a Machine is in the Begin/Step/Finish life
// cycle of one collection.
type collectPhase int

const (
	phaseIdle    collectPhase = iota // no collection in progress
	phaseRunning                     // between BeginCollect and termination
	phaseDone                        // terminated, awaiting FinishCollect
)

// AddProbe registers a per-cycle observer, invoked after every simulated
// clock cycle in registration order; the monitoring framework
// (internal/trace) uses one to sample signals. Any registered observer
// forces full per-cycle stepping — fast-forward and micro-sleep are disabled so every cycle is
// observable. Probes registered mid-collection take effect from the next
// cycle; they are not captured by Snapshot.
func (m *Machine) AddProbe(p func(cycle int64, m *Machine)) {
	if p == nil {
		return
	}
	m.probes = append(m.probes, p)
	m.microSleep = false
}

// ClearProbes removes every observer registered with AddProbe.
func (m *Machine) ClearProbes() { m.probes = nil }

// probing reports whether any per-cycle observer is attached.
func (m *Machine) probing() bool { return len(m.probes) > 0 }

// fireProbes invokes the AddProbe observers.
func (m *Machine) fireProbes() {
	for _, p := range m.probes {
		p(m.cycle, m)
	}
}

// Collect runs one complete garbage collection cycle and returns its
// statistics. On success the heap has been flipped: the surviving objects
// sit compacted at the bottom of the new current space and the roots point
// at them.
//
// Collect is BeginCollect + StepCycle-until-done + FinishCollect; callers
// that need to suspend a collection (checkpointing, replay) drive those
// phases directly.
func (m *Machine) Collect() (Stats, error) {
	m.BeginCollect()
	for {
		done, err := m.StepCycle()
		if err != nil {
			return Stats{}, err
		}
		if done {
			break
		}
	}
	return m.FinishCollect()
}

// BeginCollect resets the machine and starts a new collection cycle. Any
// previous collection state (including a failed one) is discarded. After
// BeginCollect the machine is mid-collection: drive it with StepCycle /
// StepCycles and call FinishCollect once a step reports done.
func (m *Machine) BeginCollect() {
	h := m.heap
	to := h.OtherSpace()
	base := h.Base(to)
	limit := h.Limit(to)

	m.sb.Reset(base, base)
	if m.cfg.MutatorOps > 0 && (m.mut == nil || m.mutBuiltin) {
		// Config-driven concurrent mode: attach the built-in churn mutator.
		// An external CollectConcurrent driver, when present, wins.
		ch := newChurnState(m.heap, m.cfg)
		m.mut = newMutCore(m, ch.drive, m.cfg.MutatorPeriod)
		m.mut.churn = ch
		m.mutBuiltin = true
	}
	ports := m.cfg.Cores
	if m.mut != nil {
		ports++ // the concurrent mutator uses its own set of memory ports
	}
	m.mem.AttachCores(ports)
	if m.cfg.NUMADomains > 0 && m.cfg.NUMAPlacement == PlacementLocal {
		// Locality-aware placement: the tospace is allocated out of
		// per-domain regions, so evacuation and scan traffic to it is local
		// to every core.
		m.mem.SetLocalWindow(base, limit)
	} else {
		m.mem.SetLocalWindow(0, 0)
	}
	m.mutStarted = false
	m.fifo.Reset()
	m.hc.Reset()
	if m.strides != nil {
		m.strides.Reset()
	}
	m.scanFrameValid = false
	m.scanFrameHdr = 0
	m.scanOff = 0
	m.toLimit = limit
	m.fifoDrops = 0
	m.cycle = 0
	m.err = nil

	if len(m.coreBuf) != m.cfg.Cores {
		m.coreBuf = make([]core, m.cfg.Cores)
		m.cores = make([]*core, m.cfg.Cores)
		m.ffKinds = make([]ffStall, m.cfg.Cores)
	}
	for i := range m.coreBuf {
		c := &m.coreBuf[i]
		*c = core{id: i, m: m, st: sIdle}
		if i == 0 {
			if m.cfg.StartupCycles > 0 {
				c.st = sStartup
				c.startupLeft = m.cfg.StartupCycles
			} else {
				c.st = sRoots
				c.inRoots = true
			}
		}
		m.cores[i] = c
	}
	m.doneCount = 0
	m.ffJumps = 0
	m.ffSkipped = 0
	m.microSleep = !m.probing() && !m.NoFastForward && m.mut == nil && m.cfg.L1Sets == 0

	m.maxCycles = m.cfg.MaxCycles
	if m.maxCycles <= 0 {
		// Generous livelock guard: even fully serialized, a collection
		// processes at most one word per a few dozen cycles.
		m.maxCycles = 1_000_000 + 200*int64(h.SemiWords())
	}
	m.scanStart = -1
	m.scanEnd = -1
	m.emptyCycles = 0
	m.lastWork = 0
	m.phase = phaseRunning
}

// StepCycle advances the collection by one simulated clock cycle (or, with
// fast-forward enabled, by one provably-dead stretch of cycles). It reports
// done once the collection has terminated; the caller then obtains the
// statistics from FinishCollect. Between StepCycle calls the machine state
// is self-contained, which is the boundary Snapshot captures.
func (m *Machine) StepCycle() (done bool, err error) {
	switch m.phase {
	case phaseIdle:
		return false, fmt.Errorf("machine: StepCycle without BeginCollect")
	case phaseDone:
		return true, nil
	}
	if m.err != nil {
		return false, m.err
	}

	m.cycle++
	if m.cycle > m.maxCycles {
		m.failf("machine: collection exceeded %d cycles (livelock?)", m.maxCycles)
		return false, m.err
	}
	m.emptyObserved = false
	// The mutator port steps before the GC cores so that any frame it
	// publishes this cycle is visible to the termination check, and it
	// only starts once Core 1 has forwarded the roots (the brief
	// stop-the-world window at the start of the cycle).
	if m.mut != nil && m.mutStarted {
		m.mut.step(m.scanEnd >= 0)
		if m.err != nil {
			return false, m.err
		}
	}
	cores := m.coreBuf
	for i := range cores {
		if c := &cores[i]; c.sleepUntil <= m.cycle {
			c.step()
		}
		// else load-waiting: stalls pre-added by stallOnLoad.
	}
	if m.err != nil {
		return false, m.err
	}
	if m.scanStart < 0 && !m.cores[0].inRoots && m.cores[0].st != sStartup && m.cores[0].st != sRoots {
		m.scanStart = m.cycle
		m.mutStarted = true
	}
	if m.scanEnd < 0 && m.emptyObserved {
		m.emptyCycles++
	}
	m.mem.Tick()

	if m.scanEnd < 0 && m.allDone() {
		m.scanEnd = m.cycle
	}
	if m.scanEnd >= 0 && m.mem.Drained() && (m.mut == nil || m.mut.idle()) {
		m.phase = phaseDone
		return true, nil
	}
	if m.probing() {
		// Monitoring samples signals on every cycle, so tracing forces
		// full per-cycle stepping (no fast-forward).
		m.fireProbes()
	} else if !m.NoFastForward && m.mut == nil && m.cfg.L1Sets == 0 {
		// The cache model structurally disables fast-forward (like the
		// mutator): a stalled port's wake-up depends on MSHR occupancy and
		// tag state, which a jump cannot reproduce exactly.
		m.fastForward(m.maxCycles, m.scanEnd, &m.emptyCycles)
	}
	return false, nil
}

// StepCycles advances the collection until at least n more clock cycles
// have elapsed (fast-forward jumps may overshoot), the collection
// terminates, or an error occurs.
func (m *Machine) StepCycles(n int64) (done bool, err error) {
	target := m.cycle + n
	for m.cycle < target {
		done, err = m.StepCycle()
		if done || err != nil {
			return done, err
		}
	}
	return false, nil
}

// FinishCollect completes a terminated collection: it validates the final
// free pointer, flips the heap, and returns the collection statistics.
func (m *Machine) FinishCollect() (Stats, error) {
	if m.phase != phaseDone {
		if m.err != nil {
			return Stats{}, m.err
		}
		return Stats{}, fmt.Errorf("machine: FinishCollect before the collection terminated")
	}
	h := m.heap
	to := h.OtherSpace()
	base := h.Base(to)
	limit := h.Limit(to)

	finalFree := m.sb.Free()
	if finalFree > limit {
		return Stats{}, fmt.Errorf("machine: free pointer %d overran tospace limit %d", finalFree, limit)
	}

	st := Stats{
		Cycles:              m.cycle + m.cfg.ShutdownCycles,
		EmptyWorklistCycles: m.emptyCycles,
		PerCore:             make([]CoreStats, m.cfg.Cores),
		FIFODrops:           m.fifoDrops,
		FIFOMaxDepth:        m.fifo.maxDepth,
		HeaderCacheHits:     m.hc.hits,
		HeaderCacheMisses:   m.hc.misses,
		FinalFree:           finalFree,
		LiveWords:           int64(finalFree - base),
		Mem:                 m.mem.Stats(),
		Sync:                m.sb.Stats(),
		Config:              m.cfg,
	}
	if m.scanStart >= 0 && m.scanEnd >= m.scanStart {
		st.ScanCycles = m.scanEnd - m.scanStart
	}
	for i, c := range m.cores {
		st.PerCore[i] = c.stats
		st.LiveObjects += c.stats.ObjectsScanned
	}

	if m.mut != nil {
		ms := m.mut.stats
		if m.scanEnd >= 0 {
			last := m.lastWork
			if last < m.scanStart {
				last = m.scanStart
			}
			ms.MarkTermCycles = m.scanEnd - last
		}
		m.countFloating(&ms, base, finalFree)
		m.mut.stats = ms
		st.Mutator = &ms
	}

	h.FinishCycle(finalFree)
	m.phase = phaseIdle
	return st, nil
}

// countFloating attributes floating garbage to the write barrier: shaded
// objects that end the cycle unreachable from both the roots and the
// mutator's registers survived only because the barrier retained them. The
// walk is untimed bookkeeping over the (not yet flipped) tospace image.
func (m *Machine) countFloating(ms *MutatorStats, base, finalFree object.Addr) {
	if len(m.mut.shaded) == 0 {
		return
	}
	h := m.heap
	reach := make(map[object.Addr]bool)
	var stack []object.Addr
	push := func(a object.Addr) {
		if a != object.NilPtr && a >= base && a < finalFree && !reach[a] {
			reach[a] = true
			stack = append(stack, a)
		}
	}
	for i := 0; i < h.NumRoots(); i++ {
		push(h.Root(i))
	}
	for _, r := range m.mut.regs {
		push(r)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		hd := h.Header(a)
		for i := 0; i < hd.Pi; i++ {
			push(h.Ptr(a, i))
		}
	}
	for _, s := range m.mut.shaded {
		if s >= base && s < finalFree && !reach[s] {
			hd := h.Header(s)
			ms.FloatingObjects++
			ms.FloatingWords += int64(object.Size(hd.Pi, hd.Delta))
		}
	}
}

// Resume drives a restored (or suspended) collection to completion and
// returns its statistics, exactly as the tail of Collect would have.
func (m *Machine) Resume() (Stats, error) {
	for {
		done, err := m.StepCycle()
		if err != nil {
			return Stats{}, err
		}
		if done {
			break
		}
	}
	return m.FinishCollect()
}

// allDone reports whether every core has detected termination.
func (m *Machine) allDone() bool {
	return m.doneCount == m.cfg.Cores
}

// coreStateName maps micro-states to short names for traces.
func coreStateName(s coreState) string {
	switch s {
	case sIdle:
		return "idle"
	case sStartup:
		return "startup"
	case sRoots:
		return "roots"
	case sGrabScan:
		return "grab-scan"
	case sScanHdrIssue, sScanHdrWait:
		return "scan-hdr"
	case sPtrLoad, sPtrLoadWait:
		return "ptr-load"
	case sChildPeekIssue, sChildPeekWait:
		return "peek"
	case sChildLock:
		return "hdr-lock"
	case sChildHdrIssue, sChildHdrWait:
		return "child-hdr"
	case sFreeAcquire:
		return "free-lock"
	case sEvacGrayStore, sEvacFwdStore:
		return "evacuate"
	case sPtrStore:
		return "ptr-store"
	case sDataLoad, sDataWait, sDataStore:
		return "copy-data"
	case sBlacken:
		return "blacken"
	case sDone:
		return "done"
	default:
		return "?"
	}
}
