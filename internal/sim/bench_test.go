package sim

import (
	"testing"

	"repro/internal/machine"
)

// benchSetup resets an engine onto a minimal run (regions only, no programs)
// so the access path can be driven directly, and returns the engine plus a
// shared and a private region. The private region is sized far beyond LLC
// reach so strided walks keep missing every level.
func benchSetup(tb testing.TB, threads int) (*Engine, Region, Region) {
	tb.Helper()
	mach, err := machine.Lookup("Xeon20")
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBuilder(mach, threads, 1, 42)
	shared := b.Heap.Alloc("bench.shared", 1<<20, true, 0)
	priv := b.Heap.Alloc("bench.private", 1<<30, false, 0)
	e := &Engine{}
	e.reset(b)
	return e, shared, priv
}

// BenchmarkAccess measures the engine's three canonical memory-access costs:
// an L1 hit (the common case the fast path is built around), a full-depth
// miss through L1/L2/LLC into DRAM, and a cross-socket coherence ping-pong
// where two writers alternately steal one shared line.
func BenchmarkAccess(b *testing.B) {
	b.Run("L1Hit", func(b *testing.B) {
		e, shared, _ := benchSetup(b, 1)
		t0 := e.threads[0]
		addr := shared.Addr(0)
		e.access(t0, 0, addr, false, false, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.access(t0, 0, addr, false, false, false)
		}
	})
	b.Run("LLCMiss", func(b *testing.B) {
		e, _, priv := benchSetup(b, 1)
		t0 := e.threads[0]
		b.ReportAllocs()
		b.ResetTimer()
		var off uint64
		for i := 0; i < b.N; i++ {
			e.access(t0, 0, priv.Addr(off), false, false, false)
			// A coprime multi-line stride scatters the walk across slots so
			// the direct-mapped arrays never retain a useful entry.
			off += 64 * 131
		}
	})
	b.Run("CoherencePingPong", func(b *testing.B) {
		e, shared, _ := benchSetup(b, 20)
		// Threads 0 and 10 sit on different sockets of the Xeon20, so every
		// write ships the line across the interconnect.
		t0, t1 := e.threads[0], e.threads[10]
		addr := shared.Addr(0)
		e.access(t0, 0, addr, true, false, false)
		e.access(t1, 0, addr, true, false, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.access(t0, 0, addr, true, false, false)
			e.access(t1, 0, addr, true, false, false)
		}
	})
}

// BenchmarkStep measures whole runs of 20 Xeon20 threads through the
// scheduler, where step prefetches the state of the op lookahead ahead.
// random-shared makes single loads and stores to random lines of a shared
// region whose directory pages and tag slots far exceed the host's private
// caches, so every access's state is a host miss the prefetch can hide.
// sequential walks 64-line runs, whose consecutive slots the host already
// streams: there a hint buys nothing, and its one call per run is all it
// costs.
func BenchmarkStep(b *testing.B) {
	mach, err := machine.Lookup("Xeon20")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		progs func(bd *Builder)
	}{
		{"random-shared", func(bd *Builder) {
			shared := bd.Heap.Alloc("bench.shared", 1<<26, true, Interleaved)
			r := newRNG(1)
			lines := int(shared.Size / lineBytes)
			for t := 0; t < bd.Threads; t++ {
				p := bd.Thread(t)
				for i := 0; i < 4096; i++ {
					addr := shared.Addr(uint64(r.intn(lines)) * lineBytes)
					if i%4 == 0 {
						p.Store(addr)
					} else {
						p.Load(addr)
					}
				}
			}
		}},
		{"sequential", func(bd *Builder) {
			shared := bd.Heap.Alloc("bench.shared", 1<<26, true, Interleaved)
			for t := 0; t < bd.Threads; t++ {
				p := bd.Thread(t)
				for i := 0; i < 256; i++ {
					p.MemRun(shared.Addr(uint64(t)<<21+uint64(i)<<12), 64, lineBytes, i%4 == 0)
				}
			}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			bd := NewBuilder(mach, 20, 1, 42)
			c.progs(bd)
			var e Engine
			e.reset(bd)
			e.run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.reset(bd)
				e.run()
			}
		})
	}
}

// benchProgs builds a small mixed workload — compute, private and shared
// memory traffic, a contended spinlock and a closing barrier — exercising
// every scheduler path run() has.
func benchProgs(b *Builder) {
	shared := b.Heap.Alloc("bench.shared", 1<<16, true, 0)
	priv := b.Heap.Alloc("bench.private", 1<<20, false, 0)
	lk := b.NewLock(LockSpin)
	bar := b.NewBarrier(BarrierSpin)
	for t := 0; t < b.Threads; t++ {
		p := b.Thread(t)
		for i := 0; i < 200; i++ {
			p.Compute(20)
			p.MemRun(priv.Addr(uint64(t)<<12), 16, 64, false)
			p.Load(shared.Addr(uint64(i&15) * 64))
			p.Lock(lk)
			p.Store(shared.Addr(uint64(t) * 64))
			p.Unlock(lk)
		}
		p.Barrier(bar)
	}
}

// TestSteadyStateZeroAllocs locks in the engine's core throughput invariant:
// once an engine has executed its runs, resetting it onto any of them again
// and running allocates nothing — thread states, caches, directory pages,
// run queue, wait queues and tallies are all recycled, whatever the order
// of the run sizes. (Sampling is excluded; sample() builds the result maps
// by design.)
func TestSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name    string
		mach    string
		threads []int // the runs, in order, that one round resets onto
	}{
		{"same size", "Xeon20", []int{4}},
		{"alternating sizes", "Opteron", []int{48, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mach, err := machine.Lookup(c.mach)
			if err != nil {
				t.Fatal(err)
			}
			var bs []*Builder
			for _, n := range c.threads {
				b := NewBuilder(mach, n, 1, 42)
				benchProgs(b)
				bs = append(bs, b)
			}
			var e Engine
			round := func() {
				for _, b := range bs {
					e.reset(b)
					e.run()
				}
			}
			round()
			if avg := testing.AllocsPerRun(20, round); avg != 0 {
				t.Fatalf("steady-state reset+run of %v threads allocates %.1f objects per round, want 0", c.threads, avg)
			}
		})
	}
}
