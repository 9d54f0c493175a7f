package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/store"
)

// sampleCounter counts simulator invocations per core count; collect runs
// the real simulator.
type sampleCounter struct {
	mu    sync.Mutex
	calls map[int]int
}

func newSampleCounter() *sampleCounter { return &sampleCounter{calls: map[int]int{}} }

func (c *sampleCounter) collect(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
	c.mu.Lock()
	c.calls[cores]++
	c.mu.Unlock()
	return sim.Collect(w, m, cores, scale)
}

// denyingCollector fails the test on any simulation.
func denyingCollector(t *testing.T) func(sim.Workload, *machine.Config, int, float64) (counters.Sample, error) {
	return func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		t.Errorf("simulator invoked on a warm store (%s, %d cores)", w.Name(), cores)
		return sim.Collect(w, m, cores, scale)
	}
}

// A garbled sample file costs exactly one re-simulation: a fresh service
// replays the window's other samples, re-simulates only the garbled core
// count and reports no cache hit; its write repairs the store, so a third
// service replays all four.
func TestGarbledSampleResimulatesOnlyItsCoreCount(t *testing.T) {
	dir := t.TempDir()
	req := CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: 0.05}
	want, err := newTestService(t, Config{CacheDir: dir}).Collect(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if want.CacheHit {
		t.Fatal("cold collection reported a cache hit")
	}
	k := store.SampleKey{Workload: "intruder", Machine: "Haswell", Scale: 0.05, Engine: sim.EngineVersion, Cores: 3}
	if err := os.WriteFile(filepath.Join(dir, k.Hash()+".json"), []byte(`{"format":2,"key":{"wor`), 0o644); err != nil {
		t.Fatal(err)
	}

	counter := newSampleCounter()
	got, err := newTestService(t, Config{CacheDir: dir, CollectSample: counter.collect}).Collect(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("a window with a re-simulated sample reported cache_hit")
	}
	if !reflect.DeepEqual(counter.calls, map[int]int{3: 1}) {
		t.Errorf("simulated core counts %v, want only 3, once", counter.calls)
	}
	if !bytes.Equal(got.Series, want.Series) {
		t.Error("repaired series differs from the original collection")
	}

	again, err := newTestService(t, Config{CacheDir: dir, CollectSample: denyingCollector(t)}).Collect(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !bytes.Equal(again.Series, want.Series) {
		t.Errorf("third service: cache_hit=%v, series equal=%v; want a full replay", again.CacheHit, bytes.Equal(again.Series, want.Series))
	}
}

// A sparse schedule is assembled from the samples a contiguous one stored:
// in the collecting process it simulates nothing, a fresh process replays
// it with cache_hit true, and both answer the bytes of an uncached sparse
// collection.
func TestSparseCollectReplaysContiguousSamples(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	svc := newTestService(t, Config{CacheDir: dir, CollectSample: countingCollector(&sims)})
	full, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sparseReq := CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1,3", Scale: 0.05}
	local, err := svc.Collect(bg, sparseReq)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 4 {
		t.Errorf("sparse request after 1-4 ran the simulator (%d calls, want 4)", sims.Load())
	}

	replayed, err := newTestService(t, Config{CacheDir: dir, CollectSample: denyingCollector(t)}).Collect(bg, sparseReq)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.CacheHit {
		t.Error("sparse schedule over stored samples should report a cache hit")
	}
	want := []counters.Sample{full.Decoded.Samples[0], full.Decoded.Samples[2]}
	if !reflect.DeepEqual(replayed.Decoded.Samples, want) {
		t.Error("sparse series differs from the contiguous collection's samples")
	}
	fresh, err := newTestService(t, Config{}).Collect(bg, sparseReq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed.Series, fresh.Series) || !bytes.Equal(local.Series, fresh.Series) {
		t.Error("assembled sparse series differs from an uncached sparse collection")
	}
}

// A cold compared predict measures the window 1..K and then compares on
// 1..N of the same machine; the window's samples serve the comparison, so
// it simulates N samples, each once, not K + N.
func TestColdComparedPredictSimulatesEachSampleOnce(t *testing.T) {
	for _, c := range []struct {
		machine string
		cores   int
	}{{"Xeon20", 20}, {"Opteron", 48}} {
		t.Run(c.machine, func(t *testing.T) {
			counter := newSampleCounter()
			svc := newTestService(t, Config{CollectSample: counter.collect})
			resp, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: c.machine, Scale: 0.05, Compare: true})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Compared || len(resp.Actual) != c.cores {
				t.Fatalf("compared=%v over %d cores, want a %d-core comparison", resp.Compared, len(resp.Actual), c.cores)
			}
			want := map[int]int{}
			for n := 1; n <= c.cores; n++ {
				want[n] = 1
			}
			if !reflect.DeepEqual(counter.calls, want) {
				t.Errorf("simulations per core count %v, want each of 1..%d once", counter.calls, c.cores)
			}
		})
	}
}

// Concurrent 1..K, 1..N and sparse requests over one input share every
// sample they have in common: each core count is simulated exactly once,
// however the requests interleave.
func TestConcurrentSchedulesSimulateEachCoreCountOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[int]int{}
	stub := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		mu.Lock()
		calls[cores]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // widen the window in which requests overlap
		return counters.Sample{Cores: cores, Seconds: 1 / float64(cores)}, nil
	}
	svc := newTestService(t, Config{CollectSample: stub, Workers: 4})
	w, m, err := resolve("intruder", "Xeon20")
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make(chan error, 3)
	for _, run := range []func() error{
		func() error { _, _, err := svc.Series(bg, w, m, 10, 0.05); return err },
		func() error { _, _, err := svc.Series(bg, w, m, 20, 0.05); return err },
		func() error {
			_, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Xeon20", Cores: "20,1,5,12", Scale: 0.05})
			return err
		},
	} {
		go func() {
			<-start
			errs <- run()
		}()
	}
	close(start)
	for range 3 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for c := 1; c <= 20; c++ {
		if calls[c] != 1 {
			t.Errorf("core count %d simulated %d times, want once", c, calls[c])
		}
	}
}
