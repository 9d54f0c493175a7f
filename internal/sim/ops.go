package sim

import (
	"fmt"

	"repro/internal/machine"
)

// OpKind enumerates the simulated operation types.
type OpKind uint8

// Operation kinds.
const (
	// OpCompute is Count cycles of useful work (FP-heavy when FP is set).
	OpCompute OpKind = iota
	// OpMem is a run of Count memory accesses starting at Addr with the
	// given byte Stride (Write selects stores).
	OpMem
	// OpLock acquires lock ID; OpUnlock releases it.
	OpLock
	OpUnlock
	// OpBarrier waits on barrier ID until all threads arrive.
	OpBarrier
	// OpTxBegin starts a software transaction; OpTxEnd commits it. Memory
	// ops in between join the transaction's read/write sets; on abort the
	// engine rewinds to the matching OpTxBegin.
	OpTxBegin
	OpTxEnd
)

// Op is one simulated operation of a thread's program.
type Op struct {
	Kind   OpKind
	Write  bool
	FP     bool
	Site   uint8  // code-site index for stall attribution
	ID     uint16 // lock or barrier index
	Count  uint32 // OpCompute: cycles; OpMem: number of accesses
	Stride int32  // OpMem: byte stride between accesses
	Addr   uint64 // OpMem: first address
}

// Program is the operation stream of one thread.
type Program []Op

// LockKind selects the synchronization cost model of a lock (paper §4.6:
// replacing pthread mutexes with test-and-set spinlocks is the
// streamcluster fix).
type LockKind uint8

// Lock kinds.
const (
	// LockMutex models a pthread mutex: cheap uncontended, expensive
	// futex-wake handoff under contention.
	LockMutex LockKind = iota
	// LockSpin models a test-and-set spinlock: ownership moves at cache
	// coherence speed.
	LockSpin
)

// BarrierKind selects the barrier implementation.
type BarrierKind uint8

// Barrier kinds.
const (
	// BarrierMutex models the PARSEC pthread mutex+condvar barrier with a
	// serialized wake chain.
	BarrierMutex BarrierKind = iota
	// BarrierSpin models a sense-reversing spin barrier that releases all
	// waiters at coherence speed.
	BarrierSpin
)

// Builder is handed to a workload to construct its per-thread programs for
// one run. It owns the simulated heap, the lock/barrier tables, the
// code-site registry and a deterministic PRNG.
type Builder struct {
	// Mach is the machine the run will execute on.
	Mach *machine.Config
	// Threads is the number of threads (= cores) of the run.
	Threads int
	// Scale is the dataset scale factor (1 = the paper's default dataset;
	// the weak-scaling experiments use 2).
	Scale float64

	// Heap is the simulated allocator.
	Heap Heap

	// Workload-level instruction-mix rates, charged per useful compute
	// cycle: BranchAbortRate feeds the branch-abort stall category,
	// FrontendRate the (excluded-by-default) frontend category, and
	// FPUPressure the FPU-full category of FP-heavy compute.
	BranchAbortRate float64
	FrontendRate    float64
	FPUPressure     float64

	progs    []Program
	locks    []LockKind
	barriers []BarrierKind
	sites    []string
	rng      rng

	lockReg   Region
	lockRegOK bool
}

// lockRegion returns the shared region backing the run's lock and barrier
// words, allocating it on first use. It is memoized so resetting an engine
// onto the same builder twice cannot grow the heap (and the footprint).
func (b *Builder) lockRegion() Region {
	if !b.lockRegOK {
		b.lockReg = b.Heap.Alloc("sim.locks", uint64(len(b.locks)+len(b.barriers)+1)*lineBytes, true, 0)
		b.lockRegOK = true
	}
	return b.lockReg
}

// recycleProgs hands the per-thread op buffers of a previous run's builder
// to this one: successive runs of a series append into already-grown
// programs instead of re-growing them from nil, which removes the
// append/memmove churn of program building from a series' steady state.
// need, when positive, is the expected per-thread op count of the coming
// run (e.g. derived from the previous run's total): a buffer whose capacity
// cannot hold it is reallocated empty at need plus slack, so building fills
// it with plain appends instead of a doubling cascade of copies, while a
// buffer already big enough is kept as is. It returns scratch resized to
// the run's threads; after the run, its entries alias the grown programs
// and can be passed to the next builder.
func (b *Builder) recycleProgs(scratch []Program, need int) []Program {
	b.progs = resize(scratch, b.Threads)
	for i := range b.progs {
		if cap(b.progs[i]) < need {
			b.progs[i] = make(Program, 0, need+need/4+16)
		} else {
			b.progs[i] = b.progs[i][:0]
		}
	}
	return b.progs
}

// Ops returns the total number of simulated operation elements across all
// thread programs: memory runs count one per access, every other op counts
// one. It is the work denominator behind estima-bench's ops/sec and
// allocs/op metrics.
func (b *Builder) Ops() int64 {
	var n int64
	for _, p := range b.progs {
		for i := range p {
			if p[i].Kind == OpMem {
				n += int64(p[i].Count)
			} else {
				n++
			}
		}
	}
	return n
}

// NewBuilder creates a builder for a run at a dataset scale already
// resolved by ResolveScale.
func NewBuilder(mach *machine.Config, threads int, scale float64, seed uint64) *Builder {
	return &Builder{
		Mach:            mach,
		Threads:         threads,
		Scale:           scale,
		BranchAbortRate: 0.03,
		FrontendRate:    0.02,
		FPUPressure:     0.25,
		progs:           make([]Program, threads),
		rng:             newRNG(seed),
	}
}

// Rand returns a deterministic pseudo-random value in [0, n).
func (b *Builder) Rand(n int) int {
	if n <= 0 {
		return 0
	}
	return b.rng.intn(n)
}

// RandFloat returns a deterministic pseudo-random value in [0, 1).
func (b *Builder) RandFloat() float64 {
	return b.rng.float()
}

// Site registers a code site (function or region name used in bottleneck
// reports) and returns its index.
func (b *Builder) Site(name string) uint8 {
	for i, s := range b.sites {
		if s == name {
			return uint8(i)
		}
	}
	if len(b.sites) >= 255 {
		panic("sim: too many code sites")
	}
	b.sites = append(b.sites, name)
	return uint8(len(b.sites) - 1)
}

// NewLock registers a lock of the given kind and returns its index.
func (b *Builder) NewLock(kind LockKind) uint16 {
	b.locks = append(b.locks, kind)
	return uint16(len(b.locks) - 1)
}

// NewLocks registers n locks of the same kind, returning the first index.
func (b *Builder) NewLocks(kind LockKind, n int) uint16 {
	first := uint16(len(b.locks))
	for i := 0; i < n; i++ {
		b.locks = append(b.locks, kind)
	}
	return first
}

// NewBarrier registers a barrier of the given kind and returns its index.
func (b *Builder) NewBarrier(kind BarrierKind) uint16 {
	b.barriers = append(b.barriers, kind)
	return uint16(len(b.barriers) - 1)
}

// Thread returns the program builder for thread t.
func (b *Builder) Thread(t int) *ProgBuilder {
	if t < 0 || t >= b.Threads {
		panic(fmt.Sprintf("sim: thread %d out of range", t))
	}
	return &ProgBuilder{b: b, t: t, prog: &b.progs[t]}
}

// ScaledInt multiplies n by the dataset scale, returning at least 1.
func (b *Builder) ScaledInt(n int) int {
	v := int(float64(n) * b.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// ProgBuilder appends operations to one thread's program. It holds a direct
// pointer to the program slot, so the per-op append touches no intermediate
// slice headers.
type ProgBuilder struct {
	b    *Builder
	t    int
	site uint8
	prog *Program
}

// At sets the current code site for subsequently appended operations.
func (p *ProgBuilder) At(site uint8) *ProgBuilder {
	p.site = site
	return p
}

func (p *ProgBuilder) push(op Op) *ProgBuilder {
	op.Site = p.site
	*p.prog = append(*p.prog, op)
	return p
}

// Compute appends n cycles of useful (integer) work.
func (p *ProgBuilder) Compute(n int) *ProgBuilder {
	if n <= 0 {
		return p
	}
	return p.push(Op{Kind: OpCompute, Count: uint32(n)})
}

// ComputeFP appends n cycles of floating-point-heavy work.
func (p *ProgBuilder) ComputeFP(n int) *ProgBuilder {
	if n <= 0 {
		return p
	}
	return p.push(Op{Kind: OpCompute, Count: uint32(n), FP: true})
}

// Load appends a single read of addr.
func (p *ProgBuilder) Load(addr uint64) *ProgBuilder {
	return p.push(Op{Kind: OpMem, Addr: addr, Count: 1})
}

// Store appends a single write of addr.
func (p *ProgBuilder) Store(addr uint64) *ProgBuilder {
	return p.push(Op{Kind: OpMem, Addr: addr, Count: 1, Write: true})
}

// MemRun appends count accesses starting at addr with the given byte stride.
func (p *ProgBuilder) MemRun(addr uint64, count, stride int, write bool) *ProgBuilder {
	if count <= 0 {
		return p
	}
	return p.push(Op{Kind: OpMem, Addr: addr, Count: uint32(count), Stride: int32(stride), Write: write})
}

// Lock appends an acquire of lock id.
func (p *ProgBuilder) Lock(id uint16) *ProgBuilder {
	return p.push(Op{Kind: OpLock, ID: id})
}

// Unlock appends a release of lock id.
func (p *ProgBuilder) Unlock(id uint16) *ProgBuilder {
	return p.push(Op{Kind: OpUnlock, ID: id})
}

// Barrier appends a wait on barrier id.
func (p *ProgBuilder) Barrier(id uint16) *ProgBuilder {
	return p.push(Op{Kind: OpBarrier, ID: id})
}

// TxBegin appends the start of a software transaction.
func (p *ProgBuilder) TxBegin() *ProgBuilder {
	return p.push(Op{Kind: OpTxBegin})
}

// TxEnd appends the commit of the innermost transaction.
func (p *ProgBuilder) TxEnd() *ProgBuilder {
	return p.push(Op{Kind: OpTxEnd})
}
