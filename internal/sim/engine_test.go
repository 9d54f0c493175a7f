package sim

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/counters"
	"repro/internal/machine"
)

// wl is a test workload defined by a build function.
type wl struct {
	name  string
	build func(b *Builder)
}

func (w wl) Name() string     { return w.name }
func (w wl) Build(b *Builder) { w.build(b) }

func mustCollect(t *testing.T, w Workload, m *machine.Config, cores int) counters.Sample {
	t.Helper()
	s, err := Collect(w, m, cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeterminism(t *testing.T) {
	w := wl{"det", func(b *Builder) {
		data := b.Heap.Alloc("data", 1<<16, true, 0)
		lock := b.NewLock(LockSpin)
		site := b.Site("main")
		for th := 0; th < b.Threads; th++ {
			p := b.Thread(th).At(site)
			for i := 0; i < 200; i++ {
				p.Compute(50)
				p.Load(data.Addr(uint64(b.Rand(1 << 16))))
				p.Lock(lock).Store(data.Addr(0)).Unlock(lock)
			}
		}
	}}
	m := machine.Opteron()
	a := mustCollect(t, w, m, 8)
	b := mustCollect(t, w, m, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical runs differ")
	}
}

func TestComputeOnlyScalesLinearly(t *testing.T) {
	// Perfectly parallel compute: doubling cores halves time.
	const work = 200000
	w := wl{"parallel", func(b *Builder) {
		per := work / b.Threads
		site := b.Site("compute")
		for th := 0; th < b.Threads; th++ {
			b.Thread(th).At(site).Compute(per)
		}
	}}
	m := machine.Opteron()
	t1 := mustCollect(t, w, m, 1).Seconds
	t4 := mustCollect(t, w, m, 4).Seconds
	speedup := t1 / t4
	if speedup < 3.5 || speedup > 4.5 {
		t.Errorf("speedup at 4 cores = %v, want ≈4", speedup)
	}
}

func TestTimeAtLeastUsefulWork(t *testing.T) {
	w := wl{"floor", func(b *Builder) {
		b.Thread(0).Compute(10000)
	}}
	m := machine.Xeon20()
	s := mustCollect(t, w, m, 1)
	if s.Cycles < 10000 {
		t.Errorf("cycles %v < useful work 10000", s.Cycles)
	}
	if s.Seconds <= 0 {
		t.Error("non-positive time")
	}
}

func TestLockContentionRecordsSpin(t *testing.T) {
	build := func(kind LockKind) wl {
		return wl{"locky", func(b *Builder) {
			data := b.Heap.Alloc("counter", 64, true, 0)
			lock := b.NewLock(kind)
			site := b.Site("critical")
			for th := 0; th < b.Threads; th++ {
				p := b.Thread(th).At(site)
				for i := 0; i < 100; i++ {
					p.Lock(lock)
					p.Compute(300) // long critical section
					p.Store(data.Addr(0))
					p.Unlock(lock)
				}
			}
		}}
	}
	m := machine.Opteron()
	s1 := mustCollect(t, build(LockSpin), m, 1)
	s8 := mustCollect(t, build(LockSpin), m, 8)
	if s1.Soft[counters.SoftLockSpin] != 0 {
		t.Errorf("1-thread run has lock spin %v", s1.Soft[counters.SoftLockSpin])
	}
	if s8.Soft[counters.SoftLockSpin] <= 0 {
		t.Error("8-thread contended run has no lock spin")
	}
	// The critical sections serialize: 8 threads cannot be 8x faster.
	if s8.Seconds < s1.Seconds/4 {
		t.Errorf("contended run too fast: %v vs %v", s8.Seconds, s1.Seconds)
	}
}

func TestMutexCostlierThanSpinUnderContention(t *testing.T) {
	build := func(kind LockKind) wl {
		return wl{"kindcmp", func(b *Builder) {
			lock := b.NewLock(kind)
			data := b.Heap.Alloc("c", 64, true, 0)
			site := b.Site("cs")
			for th := 0; th < b.Threads; th++ {
				p := b.Thread(th).At(site)
				for i := 0; i < 150; i++ {
					p.Lock(lock).Store(data.Addr(0)).Unlock(lock)
					p.Compute(100)
				}
			}
		}}
	}
	m := machine.Opteron()
	mu := mustCollect(t, build(LockMutex), m, 12)
	sp := mustCollect(t, build(LockSpin), m, 12)
	if mu.Seconds <= sp.Seconds {
		t.Errorf("mutex (%v) should be slower than spinlock (%v) under contention", mu.Seconds, sp.Seconds)
	}
}

func TestBarrierWaitAttribution(t *testing.T) {
	w := wl{"barrier", func(b *Builder) {
		bar := b.NewBarrier(BarrierSpin)
		site := b.Site("phase")
		for th := 0; th < b.Threads; th++ {
			p := b.Thread(th).At(site)
			// Imbalanced phases: thread 0 does 10x the work.
			work := 1000
			if th == 0 {
				work = 10000
			}
			for i := 0; i < 10; i++ {
				p.Compute(work)
				p.Barrier(bar)
			}
		}
	}}
	m := machine.Xeon20()
	s := mustCollect(t, w, m, 4)
	if s.Soft[counters.SoftBarrierWait] <= 0 {
		t.Error("imbalanced barrier phases recorded no barrier wait")
	}
	// Time is dominated by the slow thread.
	if s.Cycles < 10*10000 {
		t.Errorf("cycles %v below slow thread's work", s.Cycles)
	}
}

func TestMutexBarrierCostlierThanSpinBarrier(t *testing.T) {
	build := func(kind BarrierKind) wl {
		return wl{"barkind", func(b *Builder) {
			bar := b.NewBarrier(kind)
			site := b.Site("phase")
			for th := 0; th < b.Threads; th++ {
				p := b.Thread(th).At(site)
				for i := 0; i < 20; i++ {
					p.Compute(500)
					p.Barrier(bar)
				}
			}
		}}
	}
	m := machine.Opteron()
	mu := mustCollect(t, build(BarrierMutex), m, 24)
	sp := mustCollect(t, build(BarrierSpin), m, 24)
	if mu.Seconds <= sp.Seconds {
		t.Errorf("mutex barrier (%v) should be slower than spin barrier (%v)", mu.Seconds, sp.Seconds)
	}
}

func TestUnbalancedBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wedged workload should panic")
		}
	}()
	w := wl{"broken", func(b *Builder) {
		bar := b.NewBarrier(BarrierSpin)
		// Only thread 0 arrives; others never do.
		b.Thread(0).Barrier(bar)
		for th := 1; th < b.Threads; th++ {
			b.Thread(th).Compute(10)
		}
	}}
	_, _ = Collect(w, machine.Xeon20(), 2, 1)
}

func TestSTMConflictsAbort(t *testing.T) {
	build := func(disjoint bool) wl {
		return wl{"stm", func(b *Builder) {
			data := b.Heap.Alloc("tree", 1<<14, true, 0)
			site := b.Site("tx")
			for th := 0; th < b.Threads; th++ {
				p := b.Thread(th).At(site)
				for i := 0; i < 100; i++ {
					p.TxBegin()
					p.Compute(60)
					if disjoint {
						// Each thread owns a private stripe of lines.
						p.Load(data.Addr(uint64(th*2048 + (i%8)*64)))
						p.Store(data.Addr(uint64(th*2048 + (i%8)*64)))
					} else {
						// All threads fight over 4 lines.
						p.Load(data.Addr(uint64((i % 4) * 64)))
						p.Store(data.Addr(uint64((i % 4) * 64)))
					}
					p.TxEnd()
				}
			}
		}}
	}
	m := machine.Opteron()
	conflict := mustCollect(t, build(false), m, 12)
	disjoint := mustCollect(t, build(true), m, 12)
	if conflict.Soft[counters.SoftTxAborted] <= 0 {
		t.Error("conflicting transactions produced no aborted cycles")
	}
	if disjoint.Soft[counters.SoftTxAborted] >= conflict.Soft[counters.SoftTxAborted] {
		t.Errorf("disjoint aborts (%v) should be below conflicting aborts (%v)",
			disjoint.Soft[counters.SoftTxAborted], conflict.Soft[counters.SoftTxAborted])
	}
}

func TestSTMSingleThreadNeverAborts(t *testing.T) {
	w := wl{"stm1", func(b *Builder) {
		data := b.Heap.Alloc("d", 4096, true, 0)
		site := b.Site("tx")
		p := b.Thread(0).At(site)
		for i := 0; i < 50; i++ {
			p.TxBegin().Load(data.Addr(0)).Store(data.Addr(64)).TxEnd()
		}
	}}
	s := mustCollect(t, w, machine.Xeon20(), 1)
	if s.Soft[counters.SoftTxAborted] != 0 {
		t.Errorf("single-threaded STM aborted: %v cycles", s.Soft[counters.SoftTxAborted])
	}
}

func TestNUMARemoteSlower(t *testing.T) {
	build := func(home int) wl {
		return wl{"numa", func(b *Builder) {
			// Big region streamed once: mostly DRAM misses.
			data := b.Heap.Alloc("big", 1<<24, false, home)
			b.Thread(0).At(b.Site("stream")).MemRun(data.Base, 100000, 64, false)
		}}
	}
	m := machine.Xeon20() // sockets at distance 2
	local := mustCollect(t, build(0), m, 1)
	remote := mustCollect(t, build(1), m, 1)
	if remote.Seconds <= local.Seconds {
		t.Errorf("remote DRAM (%v) should be slower than local (%v)", remote.Seconds, local.Seconds)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Per-thread streaming work is constant; with enough threads the
	// socket's memory controller saturates and per-thread time grows.
	build := func() wl {
		return wl{"bw", func(b *Builder) {
			for th := 0; th < b.Threads; th++ {
				data := b.Heap.Alloc("s", 1<<24, false, 0)
				b.Thread(th).At(b.Site("stream")).MemRun(data.Base, 60000, 64, false)
			}
		}}
	}
	m := machine.Opteron()
	s1 := mustCollect(t, build(), m, 1)
	s6 := mustCollect(t, build(), m, 6)
	if s6.Seconds <= s1.Seconds*1.05 {
		t.Errorf("6 streaming threads (%v) should queue behind 1 (%v)", s6.Seconds, s1.Seconds)
	}
}

func TestCoherencePingPong(t *testing.T) {
	// Two threads alternately writing one line: LS stalls per access far
	// above a single writer's.
	build := func() wl {
		return wl{"ping", func(b *Builder) {
			data := b.Heap.Alloc("hot", 64, true, 0)
			site := b.Site("pingpong")
			for th := 0; th < b.Threads; th++ {
				p := b.Thread(th).At(site)
				for i := 0; i < 2000; i++ {
					p.Store(data.Addr(0))
					p.Compute(20)
				}
			}
		}}
	}
	m := machine.Opteron()
	s1 := mustCollect(t, build(), m, 1)
	s2 := mustCollect(t, build(), m, 2)
	lsEvent := "0D8h" // AMD LS-full event
	ls1 := s1.HW[lsEvent]
	ls2 := s2.HW[lsEvent]
	if ls2 <= ls1*1.5 {
		t.Errorf("ping-pong LS stalls (%v) should far exceed solo (%v)", ls2, ls1)
	}
}

func TestSiteAttribution(t *testing.T) {
	w := wl{"sites", func(b *Builder) {
		data := b.Heap.Alloc("d", 1<<20, false, 0)
		hot := b.Site("hot_loop")
		cold := b.Site("cold_init")
		p := b.Thread(0)
		p.At(cold).Compute(100)
		p.At(hot).MemRun(data.Base, 20000, 64, false)
	}}
	s := mustCollect(t, w, machine.Xeon20(), 1)
	if len(s.Sites) == 0 {
		t.Fatal("no site attribution")
	}
	if _, ok := s.Sites["hot_loop"]; !ok {
		t.Errorf("hot_loop missing from sites: %v", s.Sites)
	}
}

func TestFootprintTracked(t *testing.T) {
	w := wl{"fp", func(b *Builder) {
		b.Heap.Alloc("a", 1<<20, false, 0)
		b.Heap.Alloc("b", 1<<10, true, 0)
		b.Thread(0).Compute(10)
	}}
	s := mustCollect(t, w, machine.Xeon20(), 1)
	if s.FootprintBytes < 1<<20+1<<10 {
		t.Errorf("footprint %v below allocations", s.FootprintBytes)
	}
}

func TestCollectSeriesSortedAndValidated(t *testing.T) {
	w := wl{"series", func(b *Builder) {
		for th := 0; th < b.Threads; th++ {
			b.Thread(th).Compute(1000)
		}
	}}
	m := machine.Xeon20()
	s, err := CollectSeries(w, m, []int{4, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cores(); got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("cores = %v", got)
	}
	if _, err := Collect(w, m, 0, 1); err == nil {
		t.Error("0 cores should error")
	}
	if _, err := Collect(w, m, 21, 1); err == nil {
		t.Error("21 cores on Xeon20 should error")
	}
}

// CollectSeries is Collect at every core count of its schedule, in
// core-count order, whichever pooled engine and program buffers each run
// picks up.
func TestCollectSeriesMatchesCollect(t *testing.T) {
	w := wl{"series-vs-collect", func(b *Builder) {
		data := b.Heap.Alloc("data", 1<<16, true, 0)
		lock := b.NewLock(LockSpin)
		site := b.Site("main")
		for th := 0; th < b.Threads; th++ {
			p := b.Thread(th).At(site)
			for i := 0; i < 200; i++ {
				p.Compute(50)
				p.Load(data.Addr(uint64(b.Rand(1 << 16))))
				p.Lock(lock).Store(data.Addr(0)).Unlock(lock)
			}
		}
	}}
	m := machine.Xeon20()
	s, err := CollectSeries(w, m, []int{7, 1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []counters.Sample{mustCollect(t, w, m, 1), mustCollect(t, w, m, 4), mustCollect(t, w, m, 7)}
	if !reflect.DeepEqual(s.Samples, want) {
		t.Errorf("CollectSeries over {7, 1, 4} differs from Collect at 1, 4 and 7:\n got %+v\nwant %+v", s.Samples, want)
	}
}

// Scale 0 means the full-size datasets: it measures exactly what scale 1
// does, under the same seed, and records scale 1; a non-finite scale, or
// one above MaxScale, is an error on every collection entry point before
// any program is built.
func TestCollectResolvesScale(t *testing.T) {
	var builds atomic.Int64 // CollectSeries builds concurrently
	w := wl{"scaled", func(b *Builder) {
		builds.Add(1)
		n := b.ScaledInt(2000)
		for th := 0; th < b.Threads; th++ {
			b.Thread(th).Compute(n + b.Rand(500))
		}
	}}
	m := machine.Xeon20()
	for _, scale := range []float64{0, -1} {
		got, err := Collect(w, m, 2, scale)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustCollect(t, w, m, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("Collect at scale %g differs from scale 1:\n got %+v\nwant %+v", scale, got, want)
		}
		ops, err := CountOps(w, m, 2, scale)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := CountOps(w, m, 2, 1); ops != want {
			t.Errorf("CountOps at scale %g = %d, want scale 1's %d", scale, ops, want)
		}
		ser, err := CollectSeries(w, m, []int{1, 2}, scale)
		if err != nil {
			t.Fatal(err)
		}
		if ser.Scale != 1 {
			t.Errorf("CollectSeries at scale %g records scale %g, want 1", scale, ser.Scale)
		}
	}
	builds.Store(0)
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), MaxScale + 1} {
		if _, err := Collect(w, m, 2, scale); err == nil {
			t.Errorf("Collect at scale %g: want an error", scale)
		}
		if _, err := CollectSeries(w, m, []int{1}, scale); err == nil {
			t.Errorf("CollectSeries at scale %g: want an error", scale)
		}
		if _, err := CountOps(w, m, 2, scale); err == nil {
			t.Errorf("CountOps at scale %g: want an error", scale)
		}
		if n := builds.Load(); n != 0 {
			t.Errorf("a rejected scale %g built %d programs", scale, n)
		}
	}
	if _, err := CountOps(w, m, 2, MaxScale); err != nil {
		t.Errorf("CountOps at scale %d: %v, want the limit itself accepted", MaxScale, err)
	}
}

func TestCoreRange(t *testing.T) {
	r := CoreRange(4)
	if len(r) != 4 || r[0] != 1 || r[3] != 4 {
		t.Errorf("CoreRange = %v", r)
	}
}

func TestFrontendAndBranchStallsPresent(t *testing.T) {
	w := wl{"flat", func(b *Builder) {
		b.Thread(0).At(b.Site("c")).Compute(10000)
	}}
	s := mustCollect(t, w, machine.Opteron(), 1)
	if s.TotalFrontend() <= 0 {
		t.Error("no frontend stalls recorded")
	}
	if s.HW["0D2h"] <= 0 {
		t.Error("no branch-abort stalls recorded")
	}
}

func TestFPUPressureOnlyForFPCompute(t *testing.T) {
	intW := wl{"int", func(b *Builder) {
		b.Thread(0).At(b.Site("c")).Compute(10000)
	}}
	fpW := wl{"fp", func(b *Builder) {
		b.Thread(0).At(b.Site("c")).ComputeFP(10000)
	}}
	m := machine.Opteron()
	si := mustCollect(t, intW, m, 1)
	sf := mustCollect(t, fpW, m, 1)
	if si.HW["0D7h"] != 0 {
		t.Errorf("integer compute has FPU stalls %v", si.HW["0D7h"])
	}
	if sf.HW["0D7h"] <= 0 {
		t.Error("FP compute has no FPU stalls")
	}
}

func TestSampleInvariantsProperty(t *testing.T) {
	// For arbitrary small compute+memory programs: counters are
	// non-negative and cycles cover the useful work of the longest thread.
	m := machine.Xeon20()
	f := func(seed uint16, threads uint8) bool {
		nt := 1 + int(threads)%4
		w := wl{"prop", func(b *Builder) {
			data := b.Heap.Alloc("d", 1<<14, true, 0)
			site := b.Site("s")
			r := newRNG(uint64(seed))
			for th := 0; th < b.Threads; th++ {
				p := b.Thread(th).At(site)
				for i := 0; i < 20; i++ {
					switch r.intn(3) {
					case 0:
						p.Compute(1 + r.intn(500))
					case 1:
						p.Load(data.Addr(r.next() % (1 << 14)))
					default:
						p.Store(data.Addr(r.next() % (1 << 14)))
					}
				}
			}
		}}
		s, err := Collect(w, m, nt, 1)
		if err != nil {
			return false
		}
		if s.Cycles <= 0 || s.Seconds <= 0 {
			return false
		}
		for _, v := range s.HW {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		for _, v := range s.Soft {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
