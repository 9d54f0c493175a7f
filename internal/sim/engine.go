package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/counters"
	"repro/internal/machine"
)

// Soft stall indexes used by the engine's per-thread tallies. They map onto
// the counters package's software category names.
const (
	softLockSpin = iota
	softBarrierWait
	softTxAborted
	softTxBackoff
	numSoft
)

var softNames = [numSoft]string{
	counters.SoftLockSpin,
	counters.SoftBarrierWait,
	counters.SoftTxAborted,
	counters.SoftTxBackoff,
}

// Tunables of the engine's cost model. They are engine-wide constants (not
// per-machine) because they model microarchitectural mechanisms that are
// broadly similar across the paper's x86 machines.
const (
	// opBatch and quantum bound how far a thread may run ahead of the
	// global minimum clock between scheduler events. Synchronization
	// operations always execute at the global minimum, so lock, barrier
	// and transaction ordering is exact; plain memory operations may
	// reorder within one quantum.
	opBatch = 128
	quantum = 4000

	// seqMLP and randMLP divide DRAM latency to model memory-level
	// parallelism and prefetching for sequential vs pointer-chasing runs.
	seqMLP  = 4
	randMLP = 2

	// storeBufEntries is the store-buffer depth; longer store streaks pay
	// store-buffer-full stalls.
	storeBufEntries = 10
	storeBufStall   = 3

	// txPerReadValidate and txCommitBase are commit-time costs in cycles.
	txPerReadValidate = 3
	txCommitBase      = 30
	txPerWriteCommit  = 8
	// txRollbackBase/txPerWriteRollback: an aborting transaction holds its
	// write locks while it rolls back. This dead time sits on the critical
	// path of hot-line ownership chains (work queues, k-means
	// accumulators), which is what turns "stops scaling" into "slows
	// down" at high core counts.
	txRollbackBase     = 60
	txPerWriteRollback = 20
	// txBackoffBase seeds the bounded linear backoff after an abort: the
	// retry delay grows with the attempt count up to txBackoffCap steps,
	// with proportional jitter to break the phase lock of symmetric
	// threads (SwissTM-style contention management).
	txBackoffBase = 100
	txBackoffCap  = 8

	// spinHWFraction is the share of spin-wait time that shows up in
	// hardware LS stalls (coherence traffic of the spinning loads). Futex
	// sleeps leave no hardware trace, matching the paper's observation
	// that hardware counters alone miss lock/barrier bottlenecks (§5.3).
	spinHWFraction = 0.25

	// snoopServCycles is the service time of one coherence transaction
	// (cache-to-cache transfer or invalidation round) at the machine's
	// snoop/interconnect arbiter. When hot-line traffic — retry storms on
	// a work queue, k-means accumulator pile-ups — exceeds the arbiter's
	// capacity, transfers queue and the owners' handoff chain slows down,
	// producing the measured slowdowns (not mere plateaus) of intruder,
	// kmeans and yada at high core counts.
	snoopServCycles = 5.0
	snoopRate       = 1.0 / snoopServCycles
)

type waiter struct {
	thread  int
	arrival int64
}

type lockState struct {
	kind   LockKind
	holder int
	line   uint64
	// waiters[head:] is the FIFO of parked threads. Dequeuing advances head
	// instead of re-slicing the front away, so the backing array keeps its
	// capacity and steady-state acquire/release cycles never reallocate.
	waiters []waiter
	head    int
}

type barrierState struct {
	kind    BarrierKind
	line    uint64
	arrived []waiter
}

type readEntry struct {
	line uint64
	ver  uint32
}

type threadState struct {
	id    int
	chip  int // mach.Chip(id), hoisted off the access path
	clock int64
	ip    int
	prog  Program
	done  bool

	// l1/l2 are the private caches, embedded by value so a probe reaches
	// the tag arrays without an extra pointer hop; llc aliases the chip's
	// shared cache (e.llc[chip]), hoisted off the access path.
	l1, l2 cacheArray
	llc    *cacheArray

	// Transaction state.
	inTx         bool
	txStartIP    int
	txStartClock int64
	txAttempts   int
	readSet      []readEntry
	writeSet     []uint64

	storeStreak int

	// useful counts issue cycles of useful work. Every contribution is an
	// integer number of cycles, so it is held as an int64 (cheaper to bump
	// on the access path) and converted exactly at sampling time.
	useful   int64
	frontend float64
	stalls   [counters.NumSources]float64
	soft     [numSoft]float64

	rng rng
}

// Engine executes runs of built workloads on a machine. The zero value is
// ready for reset: all of its state — thread states, cache arrays, the
// coherence directory, wait queues, per-site tallies — is reused across
// runs, so a series of collections allocates only on its first run and the
// simulation loop itself is allocation-free.
type Engine struct {
	mach     *machine.Config
	b        *Builder
	threads  []*threadState
	runq     runQueue
	locks    []lockState
	barriers []barrierState
	dir      directory
	llc      []*cacheArray
	chipBW   []socketBW // per-chip memory-controller queues
	snoopBW  socketBW   // machine-wide coherence arbiter queue
	sockServ float64    // cycles per line of DRAM service

	// dist flattens mach.Distance into one row per core, replacing two
	// integer divisions per coherence event with a table load. It is
	// rebuilt only when the machine changes.
	dist     []uint8
	distN    int
	distMach *machine.Config

	// regMeta packs the engine-relevant metadata of every heap region —
	// (homeChip+1)<<1 | shared — into one small hot array, so classifying
	// an access touches four bytes instead of the 64-byte Region struct.
	regMeta []int32

	// ilvChips/ilvMagic resolve the home chip of interleaved regions:
	// the active chip count of the run and its fastmod magic (chip counts
	// are at most 64 and lines below 2^47, so the strength-reduced modulo
	// is always exact).
	ilvChips uint64
	ilvMagic uint64

	// l2Nested marks nested power-of-two L1/L2 geometries (all presets):
	// the L1 slot mask is a subset of the L2 slot mask, so any fill that
	// evicts a line from L2 also evicts it from L1, and an L1 hit proves
	// the L2 slot holds the identical entry. accessLine uses this to skip
	// provably byte-identical cache-array rewrites.
	l2Nested bool

	siteHW   [][counters.NumSources]float64
	siteSoft [][numSoft]float64
	siteName []string
}

// reset wires the engine to a freshly built workload, reusing every piece
// of engine state whose shape still fits.
func (e *Engine) reset(b *Builder) {
	m := b.Mach
	e.mach = m
	e.b = b
	e.sockServ = 1 / m.MemBWLinesPerCycle
	e.snoopBW = socketBW{}
	e.runq.reset()
	e.l2Nested = m.L1Lines > 0 && m.L1Lines&(m.L1Lines-1) == 0 &&
		m.L2Lines > 0 && m.L2Lines&(m.L2Lines-1) == 0 && m.L1Lines <= m.L2Lines

	if e.distMach != m {
		n := m.NumCores()
		if cap(e.dist) < n*n {
			e.dist = make([]uint8, n*n)
		}
		e.dist = e.dist[:n*n]
		for a := 0; a < n; a++ {
			for c := 0; c < n; c++ {
				e.dist[a*n+c] = uint8(m.Distance(a, c))
			}
		}
		e.distN = n
		e.distMach = m
	}

	nch := m.NumChips()
	for len(e.chipBW) < nch {
		e.chipBW = append(e.chipBW, socketBW{})
	}
	e.chipBW = e.chipBW[:nch]
	for i := range e.chipBW {
		e.chipBW[i] = socketBW{}
	}
	for len(e.llc) < nch {
		e.llc = append(e.llc, nil)
	}
	e.llc = e.llc[:nch]
	for i := range e.llc {
		e.llc[i] = ensureCache(e.llc[i], m.LLCLines)
	}

	// First-touch placement spreads interleaved regions over the memory
	// controllers of the sockets whose cores the run uses.
	perSocket := m.CoresPerChip * m.ChipsPerSocket
	sockets := (b.Threads + perSocket - 1) / perSocket
	e.ilvChips = uint64(sockets * m.ChipsPerSocket)
	e.ilvMagic = ^uint64(0)/e.ilvChips + 1

	lockRegion := b.lockRegion()
	for len(e.locks) < len(b.locks) {
		e.locks = append(e.locks, lockState{})
	}
	e.locks = e.locks[:len(b.locks)]
	for i := range e.locks {
		l := &e.locks[i]
		l.kind = b.locks[i]
		l.holder = -1
		l.line = lockRegion.Addr(uint64(i)*lineBytes) >> 6
		l.waiters = l.waiters[:0]
		l.head = 0
	}
	for len(e.barriers) < len(b.barriers) {
		e.barriers = append(e.barriers, barrierState{})
	}
	e.barriers = e.barriers[:len(b.barriers)]
	for i := range e.barriers {
		br := &e.barriers[i]
		br.kind = b.barriers[i]
		br.line = lockRegion.Addr(uint64(len(b.locks)+i)*lineBytes) >> 6
		br.arrived = br.arrived[:0]
	}

	for len(e.threads) < b.Threads {
		e.threads = append(e.threads, &threadState{})
	}
	e.threads = e.threads[:b.Threads]
	for t, ts := range e.threads {
		ts.id = t
		ts.chip = m.Chip(t)
		ts.clock = 0
		ts.ip = 0
		ts.prog = b.progs[t]
		ts.done = false
		ts.l1.ensure(m.L1Lines)
		ts.l2.ensure(m.L2Lines)
		ts.llc = e.llc[ts.chip]
		ts.inTx = false
		ts.txStartIP = 0
		ts.txStartClock = 0
		ts.txAttempts = 0
		ts.readSet = ts.readSet[:0]
		ts.writeSet = ts.writeSet[:0]
		ts.storeStreak = 0
		ts.useful = 0
		ts.frontend = 0
		ts.stalls = [counters.NumSources]float64{}
		ts.soft = [numSoft]float64{}
		ts.rng = newRNG(b.rng.state ^ uint64(t)*0x9e3779b97f4a7c15)
	}

	ns := len(b.sites)
	for len(e.siteHW) < ns {
		e.siteHW = append(e.siteHW, [counters.NumSources]float64{})
	}
	e.siteHW = e.siteHW[:ns]
	for i := range e.siteHW {
		e.siteHW[i] = [counters.NumSources]float64{}
	}
	for len(e.siteSoft) < ns {
		e.siteSoft = append(e.siteSoft, [numSoft]float64{})
	}
	e.siteSoft = e.siteSoft[:ns]
	for i := range e.siteSoft {
		e.siteSoft[i] = [numSoft]float64{}
	}
	e.siteName = b.sites

	e.dir.reset(len(b.Heap.regions))

	// The heap is final here (lockRegion above was its last allocation), so
	// the run's line addresses are bounded and the non-power-of-two cache
	// arrays can prove their strength-reduced slot modulo exact.
	maxLine := uint64(len(b.Heap.regions)+1) << dirRegionBits
	for _, c := range e.llc {
		c.enableFastmod(maxLine)
	}
	for _, ts := range e.threads {
		ts.l1.enableFastmod(maxLine)
		ts.l2.enableFastmod(maxLine)
	}

	e.regMeta = e.regMeta[:0]
	for i := range b.Heap.regions {
		r := &b.Heap.regions[i]
		meta := int32(r.HomeChip+1) << 1
		if r.Shared {
			meta |= 1
		}
		e.regMeta = append(e.regMeta, meta)
	}
}

// ensureCache recycles a cache array when its geometry still matches,
// otherwise allocates a fresh one.
func ensureCache(c *cacheArray, n int) *cacheArray {
	if n <= 0 {
		n = 1
	}
	if c == nil || len(c.ents) != n {
		return newCacheArray(n)
	}
	c.reset()
	return c
}

// distance returns the NUMA distance between two cores from the flattened
// table.
func (e *Engine) distance(a, b int) int {
	return int(e.dist[a*e.distN+b])
}

func (e *Engine) run() {
	for _, t := range e.threads {
		if len(t.prog) == 0 {
			t.done = true
			continue
		}
		e.runq.push(t)
	}
	for !e.runq.empty() {
		e.step(e.runq.pop())
	}
	for _, t := range e.threads {
		if !t.done {
			panic(fmt.Sprintf("sim: thread %d wedged at ip %d/%d (unbalanced lock or barrier in workload)",
				t.id, t.ip, len(t.prog)))
		}
	}
}

// batchDone bounds how long a thread runs between scheduler events.
func (t *threadState) batchDone(start int64, ops int) bool {
	return ops >= opBatch || t.clock-start >= quantum
}

// step runs thread t for one scheduling batch. On return the thread has
// either been re-queued, parked on a lock/barrier, or finished.
func (e *Engine) step(t *threadState) {
	start := t.clock
	ops := 0
	for {
		if t.ip >= len(t.prog) {
			t.done = true
			return
		}
		op := &t.prog[t.ip]
		// Synchronization operations only execute at the head of a batch,
		// when this thread holds the global minimum clock, keeping lock,
		// barrier and transaction ordering exact. OpUnlock is included so
		// that lock hold intervals are visible to other threads in global
		// time order — otherwise a critical section that fits inside one
		// batch would never appear contended. OpTxBegin is included so a
		// transaction's eager write locks become observable at (almost)
		// their true acquisition times rather than from the start of a
		// batch that began long before the transaction did.
		const blockingKinds = 1<<OpLock | 1<<OpUnlock | 1<<OpBarrier |
			1<<OpTxBegin | 1<<OpTxEnd
		if blockingKinds>>op.Kind&1 != 0 && ops > 0 {
			e.runq.push(t)
			return
		}
		switch op.Kind {
		case OpCompute:
			e.compute(t, op)
			t.ip++
		case OpMem:
			if aborted := e.memRun(t, op); aborted {
				// The transaction rewound and backed off; rejoin the run
				// queue so the retry is ordered against other threads.
				e.runq.push(t)
				return
			}
			t.ip++
		case OpLock:
			if !e.lockAcquire(t, op) {
				return // parked
			}
			t.ip++
		case OpUnlock:
			e.lockRelease(t, op)
			t.ip++
		case OpBarrier:
			if !e.barrierArrive(t, op) {
				return // parked
			}
			t.ip++
		case OpTxBegin:
			t.inTx = true
			t.txStartIP = t.ip
			t.txStartClock = t.clock
			t.readSet = t.readSet[:0]
			t.writeSet = t.writeSet[:0]
			t.clock += 8 // tx_start bookkeeping
			t.useful += 8
			t.ip++
		case OpTxEnd:
			e.txCommit(t, op)
			// txCommit advances ip (commit) or rewinds it (abort).
		}
		ops++
		if t.batchDone(start, ops) {
			e.runq.push(t)
			return
		}
	}
}

// compute charges useful cycles plus the flat-rate stall categories tied to
// instruction execution: branch-abort recovery, FPU saturation for FP-heavy
// phases, and frontend fetch stalls.
func (e *Engine) compute(t *threadState, op *Op) {
	n := float64(op.Count)
	t.clock += int64(op.Count)
	t.useful += int64(op.Count)

	br := n * e.b.BranchAbortRate
	e.stall(t, op.Site, counters.SrcBranchAbort, br)
	if op.FP {
		fp := n * e.b.FPUPressure
		e.stall(t, op.Site, counters.SrcFPU, fp)
	}
	fe := n * e.b.FrontendRate
	t.frontend += fe
	t.clock += int64(br + fe)
	if op.FP {
		t.clock += int64(n * e.b.FPUPressure)
	}
}

// stall records stalled cycles of one source, attributed to a site.
func (e *Engine) stall(t *threadState, site uint8, src counters.Source, cycles float64) {
	if cycles <= 0 {
		return
	}
	t.stalls[src] += cycles
	if int(site) < len(e.siteHW) {
		e.siteHW[site][src] += cycles
	}
}

// softStall records software stall cycles attributed to a site.
func (e *Engine) softStall(t *threadState, site uint8, idx int, cycles float64) {
	if cycles <= 0 {
		return
	}
	t.soft[idx] += cycles
	if int(site) < len(e.siteSoft) {
		e.siteSoft[site][idx] += cycles
	}
}

// memRun executes a batched run of memory accesses at cache-line
// granularity: the run is cut into segments of consecutive elements that
// touch the same line, the segment's first element walks the full memory
// model, and the remaining elements pay only their per-element issue,
// store-buffer and STM-tracking costs — the cache and directory state they
// would observe is exactly what the first element just installed. It
// reports whether the run was cut short by a transaction abort (in which
// case the thread's ip has been rewound and must not be advanced).
func (e *Engine) memRun(t *threadState, op *Op) (aborted bool) {
	addr := op.Addr
	count := op.Count
	if count == 1 {
		return e.access(t, op.Site, addr, op.Write, false, true)
	}
	stride := int64(op.Stride)
	sequential := stride != 0 && stride <= 2*lineBytes && stride >= -2*lineBytes
	curRid := -1
	meta := int32(-1) // packed region metadata; -1 = outside the heap
	for i := uint32(0); i < count; {
		// Elements from addr onward that stay within addr's cache line.
		var span uint32
		switch {
		case stride >= lineBytes || stride <= -lineBytes:
			// A full-line-or-more stride (the common dense-array walk)
			// always leaves the line after one element.
			span = 1
		case stride > 0:
			next := (addr>>6 + 1) << 6
			span = uint32((next - addr + uint64(stride) - 1) / uint64(stride))
		case stride < 0:
			lineStart := addr >> 6 << 6
			span = uint32((addr-lineStart)/uint64(-stride)) + 1
		default:
			span = count - i
		}
		if rem := count - i; span > rem {
			span = rem
		}
		if rid := int(addr >> regionShift); rid != curRid {
			curRid = rid
			if rid >= 1 && rid <= len(e.regMeta) {
				meta = e.regMeta[rid-1]
			} else {
				meta = -1
			}
		}
		if meta < 0 {
			// Stray addresses are a workload bug; treat as private scratch:
			// one issue cycle of useful work per element, nothing else.
			t.clock += int64(span)
			t.useful += int64(span)
		} else if e.accessLine(t, op.Site, meta, addr, op.Write, sequential, true, span) {
			return true
		}
		i += span
		addr = uint64(int64(addr) + stride*int64(span))
	}
	return false
}

// access performs one memory access: cache lookup, coherence, NUMA and
// bandwidth modelling, stall attribution, and (when stmTrack is set)
// STM read/write-set tracking. It reports whether the access aborted the
// thread's current transaction.
func (e *Engine) access(t *threadState, site uint8, addr uint64, write, sequential, stmTrack bool) (aborted bool) {
	rid := int(addr>>regionShift) - 1
	if rid < 0 || rid >= len(e.regMeta) {
		// A stray address is a workload bug; treat as private scratch.
		t.clock++
		t.useful++
		return false
	}
	return e.accessLine(t, site, e.regMeta[rid], addr, write, sequential, stmTrack, 1)
}

// accessLine performs span back-to-back accesses that all fall on addr's
// cache line. The first access walks the full memory model; the remaining
// span-1 accesses charge exactly the per-element costs the one-at-a-time
// path would: an issue cycle of useful work, store-buffer pressure or
// drain, STM read tracking, and — for untracked shared writes — one
// version bump per store.
func (e *Engine) accessLine(t *threadState, site uint8, meta int32, addr uint64, write, sequential, stmTrack bool, span uint32) (aborted bool) {
	line := addr >> 6
	core := t.id
	shared := meta&1 != 0
	self1 := int16(core + 1)

	var de *dirEntry
	var ver uint32
	if shared {
		de = e.dir.entry(line)
		ver = de.version
	}

	// STM bookkeeping: eager write locks, versioned read set.
	if t.inTx && shared && stmTrack {
		if write {
			if de.lock1 != 0 && de.lock1 != self1 {
				e.txAbort(t, site)
				return true
			}
			if de.lock1 == 0 {
				de.lock1 = self1
				t.writeSet = append(t.writeSet, line)
			}
		} else if de.lock1 != self1 {
			t.readSet = append(t.readSet, readEntry{line, ver})
		}
	}

	// One issue cycle of useful work per access.
	t.clock++
	t.useful++

	// Store streak → store-buffer pressure.
	if write {
		t.storeStreak++
		if t.storeStreak > storeBufEntries {
			e.stall(t, site, counters.SrcStoreBuf, storeBufStall)
			t.clock += storeBufStall
		}
	} else if t.storeStreak > 0 {
		t.storeStreak--
	}

	// Cache hierarchy walk. Slots are computed once and shared between the
	// probe and the final fill, and all three tag entries are loaded before
	// the first comparison so the host CPU overlaps their (frequently
	// cache-missing) loads instead of serializing them behind branches.
	llc := t.llc
	i1 := t.l1.slot(line)
	i2 := t.l2.slot(line)
	i3 := llc.slot(line)
	en1 := t.l1.ents[i1]
	en2 := t.l2.ents[i2]
	en3 := llc.ents[i3]
	verProbe := ver
	var l1Hit, l2Hit, llcHit bool
	switch {
	case en1.combo == t.l1.epoch|line && en1.ver >= ver:
		// L1 hit: fully pipelined.
		l1Hit = true
	case en2.combo == t.l2.epoch|line && en2.ver >= ver:
		l2Hit = true
		e.stall(t, site, counters.SrcRS, float64(e.mach.L2Lat))
		t.clock += e.mach.L2Lat
	case en3.combo == llc.epoch|line && en3.ver >= ver:
		llcHit = true
		e.stall(t, site, counters.SrcRS, float64(e.mach.LLCLat))
		t.clock += e.mach.LLCLat
	default:
		e.dramAccess(t, site, line, meta, write, sequential)
	}

	// Coherence beyond the hierarchy walk. Writes inside a transaction do
	// not publish a new version until commit (write-back STM), but they do
	// move the line into this core's cache.
	if shared {
		if write {
			// Upgrades/RFO: invalidate other sharers. The cost grows with
			// the sharer count — a widely shared hot line (a lock word, a
			// work-queue head, a k-means accumulator) pays a larger
			// invalidation round every write, which is what makes hot-line
			// workloads degrade (not just flatten) at high core counts.
			others := de.sharers &^ (1 << uint(core))
			if others != 0 || (de.writer1 != 0 && de.writer1 != self1) {
				d := e.maxSharerDistance(core, de)
				fanout := 1 + float64(bits.OnesCount64(others))/12
				inv := float64(e.mach.C2CLat[d])/2*fanout + e.snoop(t.clock)
				e.stall(t, site, counters.SrcLS, inv)
				t.clock += int64(inv)
			}
			if t.inTx && stmTrack {
				// Version bumps at commit; cache the current version.
				de.sharers = 1 << uint(core)
				de.writer1 = self1
			} else {
				de.version++
				de.sharers = 1 << uint(core)
				de.writer1 = self1
				ver = de.version
			}
		} else {
			if de.writer1 != 0 && de.writer1 != self1 {
				// Dirty in another cache: cache-to-cache transfer.
				d := e.distance(core, int(de.writer1)-1)
				c2c := float64(e.mach.C2CLat[d]) + e.snoop(t.clock)
				e.stall(t, site, counters.SrcLS, c2c)
				t.clock += int64(c2c)
				de.writer1 = 0
			}
			de.sharers |= 1 << uint(core)
		}
	}

	// Trailing same-line accesses: after the first access installed the
	// line everywhere, each further element is an L1 hit paying only its
	// issue cycle plus store-buffer and STM-tracking effects — with the
	// identical per-element accounting order the unbatched path used.
	if span > 1 {
		trackRead := t.inTx && shared && stmTrack && !write && de.lock1 != self1
		bumpVer := shared && write && !(t.inTx && stmTrack)
		for j := uint32(1); j < span; j++ {
			if trackRead {
				t.readSet = append(t.readSet, readEntry{line, ver})
			}
			t.clock++
			t.useful++
			if write {
				t.storeStreak++
				if t.storeStreak > storeBufEntries {
					e.stall(t, site, counters.SrcStoreBuf, storeBufStall)
					t.clock += storeBufStall
				}
			} else if t.storeStreak > 0 {
				t.storeStreak--
			}
			if bumpVer {
				de.version++
			}
		}
		if bumpVer {
			ver = de.version
		}
	}

	// Final fills. A fill into the level that just hit rewrites the bytes
	// the probe matched (hit at ver' >= ver with ver' <= the line's current
	// version implies ver' == ver), and an L1 hit with nested geometry
	// proves the L2 slot holds that same entry — so when the version did
	// not move during this access, those rewrites are skipped as provable
	// no-ops. Any version bump re-enables every fill.
	same := ver == verProbe
	if !(same && l1Hit) {
		t.l1.fillAt(i1, line, ver)
	}
	if !(same && (l2Hit || (l1Hit && e.l2Nested))) {
		t.l2.fillAt(i2, line, ver)
	}
	if !(same && llcHit) {
		llc.fillAt(i3, line, ver)
	}
	return false
}

// snoop charges one coherence transaction to the machine-wide arbiter and
// returns the queueing delay it sees.
func (e *Engine) snoop(now int64) float64 {
	return e.snoopBW.enqueue(now, snoopRate, snoopServCycles)
}

// dramAccess models an LLC miss: NUMA latency to the region's home memory
// plus bandwidth queueing at the home socket's memory controller.
func (e *Engine) dramAccess(t *threadState, site uint8, line uint64, meta int32, write, sequential bool) {
	core := t.id
	homeChip := int(meta>>1) - 1
	if homeChip < 0 {
		// First-touch placement: line % ilvChips via the always-exact
		// fastmod precomputed at reset.
		hi, _ := bits.Mul64(e.ilvMagic*line, e.ilvChips)
		homeChip = int(hi)
	}
	homeCore := homeChip * e.mach.CoresPerChip
	if homeCore >= e.mach.NumCores() {
		homeCore = 0
	}
	dist := e.distance(core, homeCore)
	lat := float64(e.mach.MemLat[dist])

	// Bandwidth queueing at the home chip's memory controller.
	qdelay := e.chipBW[homeChip].enqueue(t.clock, e.mach.MemBWLinesPerCycle, e.sockServ)

	mlp := float64(randMLP)
	if sequential {
		mlp = seqMLP
	}
	visible := lat/mlp + qdelay
	if write {
		half := visible / 2
		e.stall(t, site, counters.SrcStoreBuf, half)
		e.stall(t, site, counters.SrcROB, visible-half)
	} else {
		e.stall(t, site, counters.SrcROB, visible)
	}
	t.clock += int64(visible)
}

// maxSharerDistance returns the largest NUMA distance from core to any
// other sharer of the line (the cost driver of an invalidation round).
func (e *Engine) maxSharerDistance(core int, de *dirEntry) int {
	maxD := 0
	sharers := de.sharers &^ (1 << uint(core))
	for sharers != 0 {
		c := bits.TrailingZeros64(sharers)
		sharers &= sharers - 1
		if c < e.distN {
			if d := e.distance(core, c); d > maxD {
				maxD = d
			}
		}
	}
	if de.writer1 != 0 && int(de.writer1) != core+1 {
		if d := e.distance(core, int(de.writer1)-1); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// sample assembles the run's counters.Sample.
func (e *Engine) sample() counters.Sample {
	m := e.mach
	var maxClock int64
	var useful, frontend float64
	var stalls [counters.NumSources]float64
	var soft [numSoft]float64
	for _, t := range e.threads {
		if t.clock > maxClock {
			maxClock = t.clock
		}
		useful += float64(t.useful)
		frontend += t.frontend
		for s := 0; s < int(counters.NumSources); s++ {
			stalls[s] += t.stalls[s]
		}
		for s := 0; s < numSoft; s++ {
			soft[s] += t.soft[s]
		}
	}

	hw := map[string]float64{}
	sites := map[string]map[string]float64{}
	events := counters.BackendEvents(m.Arch)
	for _, ev := range events {
		total := 0.0
		for _, src := range ev.Sources {
			total += stalls[src]
		}
		hw[ev.Code] = total
	}
	fe := map[string]float64{}
	for _, ev := range counters.FrontendEvents(m.Arch) {
		fe[ev.Code] = frontend
	}
	softM := map[string]float64{}
	for i, name := range softNames {
		softM[name] = soft[i]
	}

	for si, name := range e.siteName {
		per := map[string]float64{}
		for _, ev := range events {
			total := 0.0
			for _, src := range ev.Sources {
				total += e.siteHW[si][src]
			}
			if total > 0 {
				per[ev.Code] = total
			}
		}
		for i, sname := range softNames {
			if v := e.siteSoft[si][i]; v > 0 {
				per[sname] = v
			}
		}
		if len(per) > 0 {
			sites[name] = per
		}
	}

	return counters.Sample{
		Cores:          len(e.threads),
		Seconds:        m.Seconds(float64(maxClock)),
		Cycles:         float64(maxClock),
		UsefulCycles:   useful,
		HW:             hw,
		Frontend:       fe,
		Soft:           softM,
		Sites:          sites,
		FootprintBytes: e.b.Heap.Footprint(),
	}
}
