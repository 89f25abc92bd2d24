package snapshot

import (
	"fmt"

	"hwgc/internal/heap"
	"hwgc/internal/machine"
	"hwgc/internal/mem"
	"hwgc/internal/syncblock"
)

// Encode serializes a captured machine state.
func Encode(st *machine.State) []byte {
	out := append([]byte(nil), magic...)
	var hdr writer
	hdr.u32(version)
	out = append(out, hdr.buf...)

	var w writer
	encodeConfig(&w, st.Config)
	out = w.frame(out, tagConfig)

	w = writer{}
	encodeHeap(&w, st.Heap)
	out = w.frame(out, tagHeap)

	w = writer{}
	encodeSync(&w, st.Sync)
	out = w.frame(out, tagSync)

	w = writer{}
	encodeMem(&w, st.Mem)
	out = w.frame(out, tagMem)

	w = writer{}
	encodeMachine(&w, st)
	out = w.frame(out, tagMachine)
	return out
}

// Decode parses a serialized machine state, validating framing and
// checksums. The result is structurally sound but not semantically
// validated — machine.RestoreMachine performs the cross-field checks.
func Decode(data []byte) (*machine.State, error) {
	r := &reader{data: data}
	if got := r.take(len(magic)); r.err != nil {
		return nil, r.err
	} else if string(got) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", got)
	}
	v := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if v < minVersion || v > version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (have %d..%d)", v, minVersion, version)
	}

	st := &machine.State{}
	sec, err := readSection(r, tagConfig)
	if err != nil {
		return nil, err
	}
	if st.Config, err = decodeConfig(sec, v); err != nil {
		return nil, err
	}
	if sec, err = readSection(r, tagHeap); err != nil {
		return nil, err
	}
	if st.Heap, err = decodeHeap(sec); err != nil {
		return nil, err
	}
	if sec, err = readSection(r, tagSync); err != nil {
		return nil, err
	}
	if st.Sync, err = decodeSync(sec); err != nil {
		return nil, err
	}
	if sec, err = readSection(r, tagMem); err != nil {
		return nil, err
	}
	if st.Mem, err = decodeMem(sec, v); err != nil {
		return nil, err
	}
	if sec, err = readSection(r, tagMachine); err != nil {
		return nil, err
	}
	if err = decodeMachine(sec, st, v); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last section", r.remaining())
	}
	return st, nil
}

func encodeConfig(w *writer, c machine.Config) {
	w.i64(int64(c.Cores))
	w.i64(int64(c.MemLatency))
	w.i64(int64(c.ExtraMemLatency))
	w.i64(int64(c.MemBandwidth))
	w.i64(int64(c.MemStoreQueueDepth))
	w.i64(int64(c.MemBanks))
	w.i64(int64(c.MemBankBusy))
	w.i64(int64(c.FIFOCapacity))
	w.bool(c.DisableFIFO)
	w.bool(c.OptUnlockedMarkRead)
	w.i64(int64(c.HeaderCacheLines))
	w.i64(int64(c.StrideWords))
	w.i64(c.StartupCycles)
	w.i64(c.ShutdownCycles)
	w.i64(c.MaxCycles)
	// Version 2: concurrent-mutator knobs.
	w.u8(encodeBarrierMode(c.BarrierMode))
	w.i64(c.MutatorOps)
	w.i64(c.MutatorAllocs)
	w.i64(c.MutatorSeed)
	w.i64(int64(c.MutatorPeriod))
	// Version 3: memory-hierarchy knobs.
	w.i64(int64(c.NUMADomains))
	w.i64(int64(c.NUMARemotePenalty))
	w.i64(int64(c.NUMAInterleave))
	w.i64(int64(c.NUMABandwidth))
	w.u8(encodePlacement(c.NUMAPlacement))
	w.i64(int64(c.L1Sets))
	w.i64(int64(c.L1Ways))
	w.i64(int64(c.L2Sets))
	w.i64(int64(c.L2Ways))
	w.i64(int64(c.MSHRs))
	w.i64(int64(c.CacheLineWords))
}

// encodePlacement maps the NUMA-placement enum to a stable wire byte.
func encodePlacement(p machine.NUMAPlacement) uint8 {
	if p == machine.PlacementLocal {
		return 1
	}
	return 0
}

func decodePlacement(v uint8) (machine.NUMAPlacement, error) {
	switch v {
	case 0:
		return machine.PlacementNaive, nil
	case 1:
		return machine.PlacementLocal, nil
	}
	return machine.PlacementNaive, fmt.Errorf("snapshot: unknown NUMA placement byte %d", v)
}

// encodeBarrierMode maps the barrier-mode enum to a stable wire byte.
func encodeBarrierMode(b machine.BarrierMode) uint8 {
	switch b {
	case machine.BarrierSATB:
		return 1
	case machine.BarrierIncUpdate:
		return 2
	default:
		return 0
	}
}

func decodeBarrierMode(v uint8) (machine.BarrierMode, error) {
	switch v {
	case 0:
		return machine.BarrierNone, nil
	case 1:
		return machine.BarrierSATB, nil
	case 2:
		return machine.BarrierIncUpdate, nil
	}
	return machine.BarrierNone, fmt.Errorf("snapshot: unknown barrier mode byte %d", v)
}

func decodeConfig(r *reader, v uint32) (machine.Config, error) {
	c := machine.Config{
		Cores:              r.intField(),
		MemLatency:         r.intField(),
		ExtraMemLatency:    r.intField(),
		MemBandwidth:       r.intField(),
		MemStoreQueueDepth: r.intField(),
		MemBanks:           r.intField(),
		MemBankBusy:        r.intField(),
		FIFOCapacity:       r.intField(),
	}
	c.DisableFIFO = r.bool()
	c.OptUnlockedMarkRead = r.bool()
	c.HeaderCacheLines = r.intField()
	c.StrideWords = r.intField()
	c.StartupCycles = r.i64()
	c.ShutdownCycles = r.i64()
	c.MaxCycles = r.i64()
	if v >= 2 {
		mode, err := decodeBarrierMode(r.u8())
		if err != nil && r.err == nil {
			return c, err
		}
		c.BarrierMode = mode
		c.MutatorOps = r.i64()
		c.MutatorAllocs = r.i64()
		c.MutatorSeed = r.i64()
		c.MutatorPeriod = r.intField()
	}
	if v >= 3 {
		c.NUMADomains = r.intField()
		c.NUMARemotePenalty = r.intField()
		c.NUMAInterleave = r.intField()
		c.NUMABandwidth = r.intField()
		place, err := decodePlacement(r.u8())
		if err != nil && r.err == nil {
			return c, err
		}
		c.NUMAPlacement = place
		c.L1Sets = r.intField()
		c.L1Ways = r.intField()
		c.L2Sets = r.intField()
		c.L2Ways = r.intField()
		c.MSHRs = r.intField()
		c.CacheLineWords = r.intField()
	}
	return c, r.done()
}

func encodeHeap(w *writer, h *heap.State) {
	w.i64(int64(h.Semi))
	w.i64(int64(h.Cur))
	w.u32(h.Alloc)
	w.i64(h.AllocCnt)
	w.count(len(h.Roots))
	for _, a := range h.Roots {
		w.u32(a)
	}
	w.count(len(h.Mem))
	for _, v := range h.Mem {
		w.u64(v)
	}
}

func decodeHeap(r *reader) (*heap.State, error) {
	h := &heap.State{
		Semi:     r.intField(),
		Cur:      r.intField(),
		Alloc:    r.u32(),
		AllocCnt: r.i64(),
	}
	if n := r.count(4); n > 0 {
		h.Roots = make([]uint32, n)
		for i := range h.Roots {
			h.Roots[i] = r.u32()
		}
	}
	if n := r.count(8); n > 0 {
		h.Mem = make([]uint64, n)
		for i := range h.Mem {
			h.Mem[i] = r.u64()
		}
	}
	return h, r.done()
}

func encodeSync(w *writer, s *syncblock.State) {
	w.i64(int64(s.Cores))
	w.u32(s.Scan)
	w.u32(s.Free)
	w.i64(int64(s.ScanOwner))
	w.i64(int64(s.FreeOwner))
	w.count(len(s.HeaderReg))
	for _, a := range s.HeaderReg {
		w.u32(a)
	}
	w.count(len(s.Busy))
	for _, b := range s.Busy {
		w.bool(b)
	}
	w.count(len(s.Barriers))
	for _, arr := range s.Barriers {
		w.bool(arr != nil)
		if arr != nil {
			w.count(len(arr))
			for _, b := range arr {
				w.bool(b)
			}
		}
	}
	w.i64(s.Stats.ScanAcquisitions)
	w.i64(s.Stats.FreeAcquisitions)
	w.i64(s.Stats.HeaderAcquisitions)
	w.i64(s.Stats.ScanConflicts)
	w.i64(s.Stats.FreeConflicts)
	w.i64(s.Stats.HeaderConflicts)
}

func decodeSync(r *reader) (*syncblock.State, error) {
	s := &syncblock.State{
		Cores:     r.intField(),
		Scan:      r.u32(),
		Free:      r.u32(),
		ScanOwner: r.intField(),
		FreeOwner: r.intField(),
	}
	if n := r.count(4); n > 0 {
		s.HeaderReg = make([]uint32, n)
		for i := range s.HeaderReg {
			s.HeaderReg[i] = r.u32()
		}
	}
	if n := r.count(1); n > 0 {
		s.Busy = make([]bool, n)
		for i := range s.Busy {
			s.Busy[i] = r.bool()
		}
	}
	if n := r.count(1); n > 0 {
		s.Barriers = make([][]bool, n)
		for i := range s.Barriers {
			if !r.bool() {
				continue
			}
			arr := make([]bool, r.count(1))
			for j := range arr {
				arr[j] = r.bool()
			}
			s.Barriers[i] = arr
		}
	}
	s.Stats.ScanAcquisitions = r.i64()
	s.Stats.FreeAcquisitions = r.i64()
	s.Stats.HeaderAcquisitions = r.i64()
	s.Stats.ScanConflicts = r.i64()
	s.Stats.FreeConflicts = r.i64()
	s.Stats.HeaderConflicts = r.i64()
	return s, r.done()
}

func encodeLoadBuffer(w *writer, b mem.LoadBuffer) {
	w.bool(b.Valid)
	w.bool(b.Accepted)
	w.bool(b.Ready)
	w.u32(b.Addr)
	w.u64(b.Data)
	w.i64(b.DoneAt)
	// Version 3: the completion class of an accepted load.
	w.u8(b.Class)
}

func decodeLoadBuffer(r *reader, v uint32) mem.LoadBuffer {
	b := mem.LoadBuffer{
		Valid:    r.bool(),
		Accepted: r.bool(),
		Ready:    r.bool(),
		Addr:     r.u32(),
		Data:     r.u64(),
		DoneAt:   r.i64(),
	}
	if v >= 3 {
		b.Class = r.u8()
	}
	return b
}

func encodeStoreQueue(w *writer, q []mem.StoreReq) {
	w.count(len(q))
	for _, s := range q {
		w.u32(s.Addr)
		w.u64(s.Data)
		w.i64(s.Seq)
	}
}

func decodeStoreQueue(r *reader) []mem.StoreReq {
	n := r.count(20)
	if n == 0 {
		return nil
	}
	q := make([]mem.StoreReq, n)
	for i := range q {
		q[i] = mem.StoreReq{Addr: r.u32(), Data: r.u64(), Seq: r.i64()}
	}
	return q
}

func encodeMem(w *writer, s *mem.State) {
	w.i64(s.Cycle)
	w.i64(int64(s.RR))
	w.i64(s.Seq)
	for _, v := range s.Stats.Accepted {
		w.i64(v)
	}
	w.i64(s.Stats.BusyCycles)
	w.i64(s.Stats.SaturatedCyc)
	w.i64(s.Stats.OrderDelays)
	w.i64(s.Stats.BankConflicts)
	w.i64(int64(s.Stats.PeakPending))
	w.i64(s.Stats.RejectedByBW)
	w.i64(s.Stats.TotalRequests)
	w.count(len(s.BusyUntil))
	for _, v := range s.BusyUntil {
		w.i64(v)
	}
	w.count(len(s.Cores))
	for _, c := range s.Cores {
		encodeLoadBuffer(w, c.HeaderLoad)
		encodeLoadBuffer(w, c.BodyLoad)
		encodeStoreQueue(w, c.HeaderStores)
		encodeStoreQueue(w, c.BodyStores)
	}
	w.count(len(s.Inflight))
	for _, f := range s.Inflight {
		w.u32(f.Addr)
		w.u64(f.Data)
		w.bool(f.Header)
		w.i64(f.DoneAt)
	}
	w.count(len(s.Completions))
	for _, v := range s.Completions {
		w.i64(v)
	}
	// Version 3: memory-hierarchy counters, completion queues and cache tags.
	w.i64(s.Stats.LocalAccesses)
	w.i64(s.Stats.RemoteAccesses)
	w.i64(s.Stats.DomainConflicts)
	w.i64(s.Stats.L1Hits)
	w.i64(s.Stats.L1Misses)
	w.i64(s.Stats.L2Hits)
	w.i64(s.Stats.L2Misses)
	w.i64(s.Stats.MSHRFullStalls)
	for _, comp := range [][]int64{s.RemoteComp, s.L1Comp, s.L2Comp} {
		w.count(len(comp))
		for _, v := range comp {
			w.i64(v)
		}
	}
	w.i64(s.LRUTick)
	w.count(len(s.L1))
	for _, lines := range s.L1 {
		encodeCacheLines(w, lines)
	}
	encodeCacheLines(w, s.L2)
}

func encodeCacheLines(w *writer, lines []mem.CacheLineState) {
	w.count(len(lines))
	for _, l := range lines {
		w.bool(l.Valid)
		w.i64(l.Tag)
		w.i64(l.Last)
	}
}

// decodeCacheLines reads one tag array; each line is 17 bytes.
func decodeCacheLines(r *reader) []mem.CacheLineState {
	n := r.count(17)
	if n == 0 {
		return nil
	}
	lines := make([]mem.CacheLineState, n)
	for i := range lines {
		lines[i] = mem.CacheLineState{Valid: r.bool(), Tag: r.i64(), Last: r.i64()}
	}
	return lines
}

func decodeMem(r *reader, v uint32) (*mem.State, error) {
	s := &mem.State{
		Cycle: r.i64(),
		RR:    r.intField(),
		Seq:   r.i64(),
	}
	for i := range s.Stats.Accepted {
		s.Stats.Accepted[i] = r.i64()
	}
	s.Stats.BusyCycles = r.i64()
	s.Stats.SaturatedCyc = r.i64()
	s.Stats.OrderDelays = r.i64()
	s.Stats.BankConflicts = r.i64()
	s.Stats.PeakPending = r.intField()
	s.Stats.RejectedByBW = r.i64()
	s.Stats.TotalRequests = r.i64()
	if n := r.count(8); n > 0 {
		s.BusyUntil = make([]int64, n)
		for i := range s.BusyUntil {
			s.BusyUntil[i] = r.i64()
		}
	}
	// Two load buffers (23 bytes each) plus two queue counts.
	if n := r.count(2*23 + 2*4); n > 0 {
		s.Cores = make([]mem.CoreIOState, n)
		for i := range s.Cores {
			s.Cores[i] = mem.CoreIOState{
				HeaderLoad:   decodeLoadBuffer(r, v),
				BodyLoad:     decodeLoadBuffer(r, v),
				HeaderStores: decodeStoreQueue(r),
				BodyStores:   decodeStoreQueue(r),
			}
		}
	}
	if n := r.count(21); n > 0 {
		s.Inflight = make([]mem.InflightStore, n)
		for i := range s.Inflight {
			s.Inflight[i] = mem.InflightStore{
				Addr: r.u32(), Data: r.u64(), Header: r.bool(), DoneAt: r.i64(),
			}
		}
	}
	if n := r.count(8); n > 0 {
		s.Completions = make([]int64, n)
		for i := range s.Completions {
			s.Completions[i] = r.i64()
		}
	}
	if v >= 3 {
		s.Stats.LocalAccesses = r.i64()
		s.Stats.RemoteAccesses = r.i64()
		s.Stats.DomainConflicts = r.i64()
		s.Stats.L1Hits = r.i64()
		s.Stats.L1Misses = r.i64()
		s.Stats.L2Hits = r.i64()
		s.Stats.L2Misses = r.i64()
		s.Stats.MSHRFullStalls = r.i64()
		for _, comp := range []*[]int64{&s.RemoteComp, &s.L1Comp, &s.L2Comp} {
			if n := r.count(8); n > 0 {
				*comp = make([]int64, n)
				for i := range *comp {
					(*comp)[i] = r.i64()
				}
			}
		}
		s.LRUTick = r.i64()
		// One L1 tag array per core; each holds at least a 4-byte count.
		if n := r.count(4); n > 0 {
			s.L1 = make([][]mem.CacheLineState, n)
			for i := range s.L1 {
				s.L1[i] = decodeCacheLines(r)
			}
		}
		s.L2 = decodeCacheLines(r)
	}
	return s, r.done()
}

func encodeCoreState(w *writer, c *machine.CoreState) {
	w.i64(int64(c.St))
	w.u32(c.ObjTo)
	w.u32(c.Backlink)
	w.u64(c.Attrs)
	w.i64(int64(c.Pi))
	w.i64(int64(c.Delta))
	w.i64(int64(c.BodyPos))
	w.i64(int64(c.BodyEnd))
	w.u64(c.DataWord)
	w.u32(c.ChildPtr)
	w.u64(c.ChildHdr)
	w.u32(c.NewPtr)
	w.u32(c.EvacAddr)
	w.u64(c.GrayHdr)
	w.i64(int64(c.RootIdx))
	w.bool(c.InRoots)
	w.i64(c.StartupLeft)
	w.i64(c.SleepUntil)
	encodeCoreStats(w, &c.Stats)
}

func decodeCoreState(r *reader) machine.CoreState {
	c := machine.CoreState{
		St:       r.intField(),
		ObjTo:    r.u32(),
		Backlink: r.u32(),
		Attrs:    r.u64(),
		Pi:       r.intField(),
		Delta:    r.intField(),
		BodyPos:  r.intField(),
		BodyEnd:  r.intField(),
		DataWord: r.u64(),
		ChildPtr: r.u32(),
		ChildHdr: r.u64(),
		NewPtr:   r.u32(),
		EvacAddr: r.u32(),
		GrayHdr:  r.u64(),
		RootIdx:  r.intField(),
	}
	c.InRoots = r.bool()
	c.StartupLeft = r.i64()
	c.SleepUntil = r.i64()
	c.Stats = decodeCoreStats(r)
	return c
}

func encodeCoreStats(w *writer, s *machine.CoreStats) {
	w.i64(s.ScanLockStall)
	w.i64(s.FreeLockStall)
	w.i64(s.HeaderLockStall)
	w.i64(s.BodyLoadStall)
	w.i64(s.BodyStoreStall)
	w.i64(s.HeaderLoadStall)
	w.i64(s.HeaderStoreStall)
	w.i64(s.ObjectsScanned)
	w.i64(s.ObjectsEvacuated)
	w.i64(s.Strides)
	w.i64(s.StrideTableStall)
	w.i64(s.PointersSeen)
	w.i64(s.WordsCopied)
	w.i64(s.FIFOHits)
	w.i64(s.FIFOMisses)
}

func decodeCoreStats(r *reader) machine.CoreStats {
	return machine.CoreStats{
		ScanLockStall:    r.i64(),
		FreeLockStall:    r.i64(),
		HeaderLockStall:  r.i64(),
		BodyLoadStall:    r.i64(),
		BodyStoreStall:   r.i64(),
		HeaderLoadStall:  r.i64(),
		HeaderStoreStall: r.i64(),
		ObjectsScanned:   r.i64(),
		ObjectsEvacuated: r.i64(),
		Strides:          r.i64(),
		StrideTableStall: r.i64(),
		PointersSeen:     r.i64(),
		WordsCopied:      r.i64(),
		FIFOHits:         r.i64(),
		FIFOMisses:       r.i64(),
	}
}

func encodeMachine(w *writer, st *machine.State) {
	w.i64(st.Cycle)
	w.i64(st.MaxCycles)
	w.i64(st.ScanStart)
	w.i64(st.ScanEnd)
	w.i64(st.EmptyCycles)
	w.i64(st.FIFODrops)
	w.i64(st.FFJumps)
	w.i64(st.FFSkipped)
	w.bool(st.ScanFrameValid)
	w.u64(st.ScanFrameHdr)
	w.i64(int64(st.ScanOff))
	w.bool(st.MutStarted)
	w.bool(st.NoFastForward)
	w.count(len(st.Cores))
	for i := range st.Cores {
		encodeCoreState(w, &st.Cores[i])
	}
	w.count(len(st.FIFO.Entries))
	for _, e := range st.FIFO.Entries {
		w.u32(e.Addr)
		w.u64(e.Hdr)
	}
	w.i64(st.FIFO.Hits)
	w.i64(st.FIFO.Misses)
	w.i64(st.FIFO.Drops)
	w.i64(int64(st.FIFO.MaxDepth))
	w.count(len(st.HeaderCache.Lines))
	for _, l := range st.HeaderCache.Lines {
		w.bool(l.Valid)
		w.u32(l.Addr)
		w.u64(l.Data)
	}
	w.i64(st.HeaderCache.Hits)
	w.i64(st.HeaderCache.Misses)
	w.count(len(st.Strides))
	for _, e := range st.Strides {
		w.bool(e.Used)
		w.u32(e.ObjTo)
		w.u64(e.Attrs)
		w.i64(int64(e.Outstanding))
		w.bool(e.Final)
	}
	// Version 2: the built-in concurrent mutator's port.
	w.bool(st.Mut != nil)
	if m := st.Mut; m != nil {
		w.count(len(m.Regs))
		for _, a := range m.Regs {
			w.u32(a)
		}
		w.u64(m.LastData)
		w.i64(int64(m.St))
		encodeMutOp(w, &m.Op)
		w.i64(m.Seq)
		w.i64(int64(m.WaitLeft))
		w.i64(m.OpStart)
		w.u32(m.AllocBase)
		w.i64(int64(m.InitIdx))
		w.u32(m.ShadeTarget)
		w.count(len(m.Shaded))
		for _, a := range m.Shaded {
			w.u32(a)
		}
		encodeMutatorStats(w, &m.Stats)
		w.u64(m.ChurnRng)
		w.i64(m.ChurnAllocs)
		w.i64(m.LastWork)
	}
}

func encodeMutOp(w *writer, op *machine.MutOp) {
	w.i64(int64(op.Kind))
	w.i64(int64(op.Reg))
	w.i64(int64(op.Reg2))
	w.i64(int64(op.Slot))
	w.i64(int64(op.RootIdx))
	w.i64(int64(op.Pi))
	w.i64(int64(op.Delta))
	w.u64(op.Data)
}

func decodeMutOp(r *reader) machine.MutOp {
	return machine.MutOp{
		Kind:    machine.MutKind(r.intField()),
		Reg:     r.intField(),
		Reg2:    r.intField(),
		Slot:    r.intField(),
		RootIdx: r.intField(),
		Pi:      r.intField(),
		Delta:   r.intField(),
		Data:    r.u64(),
	}
}

func encodeMutatorStats(w *writer, s *machine.MutatorStats) {
	w.i64(s.Ops)
	w.i64(s.Allocs)
	w.i64(s.StallCycles)
	w.i64(s.MaxOpLatency)
	w.i64(s.BarrierStalls)
	w.i64(s.AllocLock)
	w.i64(s.FramesSkipped)
	w.i64(s.PtrStores)
	w.i64(s.BarrierInvocations)
	w.i64(s.BarrierCycles)
	w.i64(s.ShadedObjects)
	w.i64(s.FloatingObjects)
	w.i64(s.FloatingWords)
	w.i64(s.MarkTermCycles)
}

func decodeMutatorStats(r *reader) machine.MutatorStats {
	return machine.MutatorStats{
		Ops:                r.i64(),
		Allocs:             r.i64(),
		StallCycles:        r.i64(),
		MaxOpLatency:       r.i64(),
		BarrierStalls:      r.i64(),
		AllocLock:          r.i64(),
		FramesSkipped:      r.i64(),
		PtrStores:          r.i64(),
		BarrierInvocations: r.i64(),
		BarrierCycles:      r.i64(),
		ShadedObjects:      r.i64(),
		FloatingObjects:    r.i64(),
		FloatingWords:      r.i64(),
		MarkTermCycles:     r.i64(),
	}
}

func decodeMachine(r *reader, st *machine.State, v uint32) error {
	st.Cycle = r.i64()
	st.MaxCycles = r.i64()
	st.ScanStart = r.i64()
	st.ScanEnd = r.i64()
	st.EmptyCycles = r.i64()
	st.FIFODrops = r.i64()
	st.FFJumps = r.i64()
	st.FFSkipped = r.i64()
	st.ScanFrameValid = r.bool()
	st.ScanFrameHdr = r.u64()
	st.ScanOff = r.intField()
	st.MutStarted = r.bool()
	st.NoFastForward = r.bool()
	// A core state is 18 fixed fields plus 15 stat counters; 100 is a safe
	// lower bound on its encoded size.
	if n := r.count(100); n > 0 {
		st.Cores = make([]machine.CoreState, n)
		for i := range st.Cores {
			st.Cores[i] = decodeCoreState(r)
		}
	}
	if n := r.count(12); n > 0 {
		st.FIFO.Entries = make([]machine.FIFOEntryState, n)
		for i := range st.FIFO.Entries {
			st.FIFO.Entries[i] = machine.FIFOEntryState{Addr: r.u32(), Hdr: r.u64()}
		}
	}
	st.FIFO.Hits = r.i64()
	st.FIFO.Misses = r.i64()
	st.FIFO.Drops = r.i64()
	st.FIFO.MaxDepth = r.intField()
	if n := r.count(13); n > 0 {
		st.HeaderCache.Lines = make([]machine.HeaderCacheLineState, n)
		for i := range st.HeaderCache.Lines {
			st.HeaderCache.Lines[i] = machine.HeaderCacheLineState{
				Valid: r.bool(), Addr: r.u32(), Data: r.u64(),
			}
		}
	}
	st.HeaderCache.Hits = r.i64()
	st.HeaderCache.Misses = r.i64()
	if n := r.count(22); n > 0 {
		st.Strides = make([]machine.StrideEntryState, n)
		for i := range st.Strides {
			st.Strides[i] = machine.StrideEntryState{
				Used: r.bool(), ObjTo: r.u32(), Attrs: r.u64(),
				Outstanding: r.intField(), Final: r.bool(),
			}
		}
	}
	if v >= 2 && r.bool() {
		m := &machine.MutState{}
		if n := r.count(4); n > 0 {
			m.Regs = make([]uint32, n)
			for i := range m.Regs {
				m.Regs[i] = r.u32()
			}
		}
		m.LastData = r.u64()
		m.St = r.intField()
		m.Op = decodeMutOp(r)
		m.Seq = r.i64()
		m.WaitLeft = r.intField()
		m.OpStart = r.i64()
		m.AllocBase = r.u32()
		m.InitIdx = r.intField()
		m.ShadeTarget = r.u32()
		if n := r.count(4); n > 0 {
			m.Shaded = make([]uint32, n)
			for i := range m.Shaded {
				m.Shaded[i] = r.u32()
			}
		}
		m.Stats = decodeMutatorStats(r)
		m.ChurnRng = r.u64()
		m.ChurnAllocs = r.i64()
		m.LastWork = r.i64()
		st.Mut = m
	}
	return r.done()
}
