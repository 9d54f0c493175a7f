package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
)

// prefetchProgs builds a run that reaches every kind of address a prefetch
// can be handed: private, shared and interleaved regions, lock words, a
// stray address past the heap, runs that skip lines in both directions and a
// transaction whose aborts rewind ip. The last thread's program is shorter
// than lookahead.
func prefetchProgs(b *Builder) {
	priv := b.Heap.Alloc("prefetch.private", 1<<20, false, 0)
	shared := b.Heap.Alloc("prefetch.shared", 1<<22, true, 1)
	ilv := b.Heap.Alloc("prefetch.interleaved", 1<<24, true, Interleaved)
	lk := b.NewLock(LockSpin)
	bar := b.NewBarrier(BarrierSpin)
	words := b.lockRegion()
	stray := uint64(len(b.Heap.regions)+4) << regionShift
	last := b.Threads - 1
	for t := 0; t < last; t++ {
		p := b.Thread(t)
		for i := 0; i < 40; i++ {
			p.Compute(10)
			p.Load(priv.Addr(uint64(t)<<16 + uint64(i)*64))
			p.Store(shared.Addr(uint64(i%8) * 64))
			p.MemRun(ilv.Addr(uint64(t)<<18+1<<17), 8, -5*lineBytes, false)
			p.MemRun(ilv.Addr(uint64(i)<<12), 6, 3*lineBytes, true)
			p.Lock(lk).Load(words.Addr(0)).Store(shared.Addr(uint64(t) * 64)).Unlock(lk)
			p.Load(stray)
			p.TxBegin().Load(shared.Addr(uint64(i%4) * 64)).Store(shared.Addr(uint64(i%3) * 64)).TxEnd()
		}
		p.Barrier(bar)
	}
	b.Thread(last).Load(shared.Addr(0)).Store(ilv.Addr(64)).Barrier(bar)
}

// engineState is a copy of everything a prefetch could disturb: every
// cache array's entries and epoch, and the directory's materialized pages.
type engineState struct {
	caches [][]cacheEnt
	epochs []uint64
	pages  []dirPage
}

func snapshotState(e *Engine) engineState {
	var s engineState
	add := func(c *cacheArray) {
		s.caches = append(s.caches, slices.Clone(c.ents))
		s.epochs = append(s.epochs, c.epoch)
	}
	for _, t := range e.threads {
		add(&t.l1)
		add(&t.l2)
	}
	for i := range e.llc {
		add(&e.llc[i])
	}
	for _, pg := range e.dir.used {
		s.pages = append(s.pages, *pg)
	}
	return s
}

// prefetchAll prefetches the line of every element of every op, more than
// step does (it prefetches only an op's first line), plus lines no program
// names: address 0, a line past the heap and a shared page the run never
// touches.
func prefetchAll(e *Engine, extra []uint64) {
	for _, t := range e.threads {
		for _, op := range t.prog {
			addr := op.Addr
			for k := uint32(0); k < max(op.Count, 1); k++ {
				e.prefetch(t, addr>>6)
				addr = uint64(int64(addr) + int64(op.Stride))
			}
		}
		for _, line := range extra {
			e.prefetch(t, line)
		}
	}
}

// TestPrefetchTouchesNoState holds prefetch to being a hint: prefetching
// every address of a run, before the run and after it, materializes no
// directory page and changes no cache entry or directory entry, and the run
// still produces the sample a fresh engine does.
func TestPrefetchTouchesNoState(t *testing.T) {
	mach, err := machine.Lookup("Xeon20")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Builder {
		b := NewBuilder(mach, 12, 1, 7)
		prefetchProgs(b)
		return b
	}

	var fresh Engine
	fresh.reset(build())
	fresh.run()
	want := fresh.sample()

	b := build()
	var e Engine
	e.reset(b)
	untouched := b.Heap.regions[1].Base + 1<<21 // a page of prefetch.shared no op names
	extra := []uint64{0, uint64(len(b.Heap.regions)+9) << dirRegionBits, untouched >> 6, ^uint64(0) >> 6}

	before := snapshotState(&e)
	prefetchAll(&e, extra)
	if n := len(e.dir.used); n != 0 {
		t.Fatalf("prefetching before the run materialized %d directory pages", n)
	}
	if !reflect.DeepEqual(snapshotState(&e), before) {
		t.Fatal("prefetching before the run changed a cache entry")
	}

	e.run()
	if got := e.sample(); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after prefetching sampled\n%+v\nwant\n%+v", got, want)
	}

	after := snapshotState(&e)
	prefetchAll(&e, extra)
	if !reflect.DeepEqual(snapshotState(&e), after) {
		t.Fatal("prefetching after the run changed a cache or directory entry, or materialized a page")
	}
}
