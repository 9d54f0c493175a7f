package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/pool"
	"repro/internal/stats"
)

// phase is the record of one closed-loop measurement phase.
type phase struct {
	lat       []float64 // ms, one per request that succeeded
	perClient []int     // requests attempted by each client
	rounds    []int     // schedule rounds each client entered
	attempted int
	failed    int
	failures  []string // the first few failure messages
	elapsed   time.Duration
	cpu       time.Duration
	allocKB   float64
	gcs       uint32
	heapPeak  uint64
}

// closedLoop runs clients concurrent closed-loop clients: client c issues
// do(c, 0), do(c, 1), ... back to back while more(c, i) holds, so a slow
// system receives less load. Latency is each call's wall time.
func closedLoop(clients int, more func(c, i int) bool, do func(c, i int) error) *phase {
	lats := make([][]float64, clients)
	var mu sync.Mutex
	p := &phase{}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, err.Error())
		}
	}
	attempted := make([]int, clients)

	// Two collections retire what set-up left behind (sync.Pool victims
	// included), so the live heap the phase reports is its own.
	runtime.GC()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	pool.ForN(clients, clients, func(c int) {
		for i := 0; more(c, i); i++ {
			attempted[c]++
			t0 := time.Now()
			err := do(c, i)
			d := time.Since(t0)
			if err != nil {
				fail(fmt.Errorf("client %d request %d: %w", c, i, err))
				continue
			}
			lats[c] = append(lats[c], float64(d)/1e6)
		}
	})
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.heapPeak = heap.stop()
	runtime.ReadMemStats(&ms1)
	p.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	p.gcs = ms1.NumGC - ms0.NumGC
	for c := range lats {
		p.lat = append(p.lat, lats[c]...)
		p.attempted += attempted[c]
	}
	p.perClient = attempted
	sort.Float64s(p.lat)
	return p
}

// merge pools two phases of one run into one record (nil p is empty).
func (p *phase) merge(q *phase) *phase {
	if p == nil {
		return q
	}
	out := &phase{
		lat:       append(append([]float64(nil), p.lat...), q.lat...),
		attempted: p.attempted + q.attempted,
		failed:    p.failed + q.failed,
		elapsed:   p.elapsed + q.elapsed,
		cpu:       p.cpu + q.cpu,
		allocKB:   p.allocKB + q.allocKB,
		gcs:       p.gcs + q.gcs,
		heapPeak:  max(p.heapPeak, q.heapPeak),
	}
	sort.Float64s(out.lat)
	return out
}

func (p *phase) completed() int { return len(p.lat) }

func (p *phase) throughput() float64 {
	return float64(p.completed()) / p.elapsed.Seconds()
}

func (p *phase) quantile(q float64) float64 {
	if len(p.lat) == 0 {
		return 0
	}
	return stats.Quantile(p.lat, q)
}

func (p *phase) cpuPerReq() float64 {
	if p.completed() == 0 {
		return 0
	}
	return float64(p.cpu) / 1e6 / float64(p.completed())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live heap (as of the last completed GC) every
// 5 ms while a phase runs. Its peak is the samples' 99th percentile: a
// level the heap reaches repeatedly, not one collection's outlier.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []float64{float64(liveHeap())}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				samples = append(samples, float64(liveHeap()))
				h.done <- uint64(stats.Quantile(samples, 0.99))
				return
			case <-t.C:
				samples = append(samples, float64(liveHeap()))
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// timed returns fn's wall time in milliseconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / 1e6
}

// mallocs returns fn's heap allocation count. Callers run it with no load
// in flight, so the delta is fn's own.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
