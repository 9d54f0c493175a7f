package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/counters"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// countingCollector wraps sim.Collect and counts simulator invocations.
func countingCollector(calls *atomic.Int64) func(sim.Workload, *machine.Config, int, float64) (counters.Sample, error) {
	return func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		calls.Add(1)
		return sim.Collect(w, m, cores, scale)
	}
}

// TestWarmSweepDoesNoNewFitsOrCollections is the planner's acceptance test:
// across a cold sweep and a warm re-sweep of the same W×M matrix — with a
// duplicate workload thrown in — exactly one collection and one fit run per
// distinct (workload, machine, options) input.
func TestWarmSweepDoesNoNewFitsOrCollections(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	var fits atomic.Int64
	svc.fitHook = func(FitKey) { fits.Add(1) }

	// 2 workloads × 2 machines, with intruder listed twice: 6 cells, 4
	// distinct inputs.
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "intruder"},
		Machines:  []string{"Haswell", "Xeon20"},
		Scale:     0.05,
	}
	cold, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Cells) != 6 || cold.Failures != 0 {
		t.Fatalf("cold sweep: %d cells, %d failures", len(cold.Cells), cold.Failures)
	}
	if got := fits.Load(); got != 4 {
		t.Errorf("cold sweep ran %d fits, want one per distinct input (4)", got)
	}
	wantSims := int64(0)
	seen := map[string]bool{}
	for _, c := range cold.Cells {
		id := c.Workload + "/" + c.Machine
		if !seen[id] {
			seen[id] = true
			wantSims += int64(c.MeasCores)
		}
	}
	if got := sims.Load(); got != wantSims {
		t.Errorf("cold sweep ran the simulator %d times, want one collection per distinct input (%d)", got, wantSims)
	}

	warm, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if fits.Load() != 4 || sims.Load() != wantSims {
		t.Errorf("warm sweep refit or re-measured: fits=%d sims=%d, want 4/%d",
			fits.Load(), sims.Load(), wantSims)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm sweep answered differently:\ncold %+v\nwarm %+v", cold, warm)
	}
	computed, hits := svc.FitCacheStats()
	if computed != 4 || hits < 8 {
		t.Errorf("FitCacheStats = %d computed / %d hits, want 4 computed and ≥8 hits", computed, hits)
	}
}

// TestConcurrentSweepsCollapseDuplicateFits hammers the planner with
// overlapping sweeps (run under -race in CI): singleflight must collapse
// every duplicate, so the fit count equals the distinct-input count and all
// responses are identical.
func TestConcurrentSweepsCollapseDuplicateFits(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	var fits atomic.Int64
	svc.fitHook = func(FitKey) { fits.Add(1) }
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "kmeans"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}

	const n = 8
	resps := make([]*SweepResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Sweep(bg, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(resps[0], resps[i]) {
			t.Fatalf("sweep %d answered differently than sweep 0", i)
		}
	}
	if got := fits.Load(); got != 3 {
		t.Errorf("%d overlapping sweeps ran %d fits, want one per distinct cell (3)", n, got)
	}
	m := machine.HaswellDesktop()
	if want := int64(3 * m.OneProcessorCores()); sims.Load() != want {
		t.Errorf("simulator ran %d times, want %d", sims.Load(), want)
	}
}

// TestPredictSharesArtifactsWithSweep: a /v1/predict request and a sweep
// cell over the same (workload, machine, options) input are one fit.
func TestPredictSharesArtifactsWithSweep(t *testing.T) {
	svc := newTestService(t, Config{})
	var fits atomic.Int64
	svc.fitHook = func(FitKey) { fits.Add(1) }
	if _, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"intruder"}, Machines: []string{"Haswell"}, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cells[0].Error != "" {
		t.Fatal(resp.Cells[0].Error)
	}
	if got := fits.Load(); got != 1 {
		t.Errorf("predict + sweep over one input ran %d fits, want 1", got)
	}
}

// TestFitCacheEvictionRefits: a one-entry memo evicts the older artifact,
// and revisiting it refits — from the still-memoized measurement series,
// not from a fresh simulation.
func TestFitCacheEvictionRefits(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	svc.fits = flight.New[FitKey, fitResult](1)
	var fits atomic.Int64
	svc.fitHook = func(FitKey) { fits.Add(1) }
	predict := func(workload string) {
		t.Helper()
		if _, err := svc.Predict(bg, PredictRequest{Workload: workload, Machine: "Haswell", Scale: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	predict("intruder")
	predict("genome") // evicts intruder's artifact
	simsBefore := sims.Load()
	predict("intruder") // refit, no re-measure
	if got := fits.Load(); got != 3 {
		t.Errorf("%d fits, want 3 (intruder evicted and refitted)", got)
	}
	if sims.Load() != simsBefore {
		t.Error("refit after eviction re-ran the simulator; the series memo should have served it")
	}
	predict("intruder") // now memo-resident again
	if got := fits.Load(); got != 3 {
		t.Errorf("%d fits after warm repeat, want 3", got)
	}
}

// TestLRUCacheRecencyAndEviction: the sample memo evicts the least
// recently used sample first. With room for two, re-reading the oldest
// protects it, so the next new sample evicts the other one.
func TestLRUCacheRecencyAndEviction(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	svc.memo = flight.New[store.SampleKey, memoSample](2)
	read := func(workload string) {
		t.Helper()
		w, m, err := resolve(workload, "Haswell")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.Series(bg, w, m, 1, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		workload string
		sims     int64
	}{
		{"intruder", 1},
		{"genome", 2},
		{"intruder", 2}, // a hit, and now the most recently used
		{"kmeans", 3},   // evicts genome
		{"intruder", 3},
		{"genome", 4},
	} {
		read(step.workload)
		if got := sims.Load(); got != step.sims {
			t.Fatalf("after reading %s: %d simulations, want %d", step.workload, got, step.sims)
		}
	}
}

// TestSeriesPrefixWindowing: a 1..K request after a 1..N collection (N > K)
// is served from the memoized samples, not by re-simulating, and is
// byte-identical to the collection's prefix.
func TestSeriesPrefixWindowing(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	full, _, err := svc.Series(bg, w, m, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 4 {
		t.Fatalf("full collection ran %d sims, want 4", sims.Load())
	}
	win, hit, err := svc.Series(bg, w, m, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 4 {
		t.Errorf("prefix request re-ran the simulator (%d calls)", sims.Load())
	}
	if hit != false {
		t.Errorf("simulated samples must not report a store hit, got %v", hit)
	}
	if len(win.Samples) != 2 || !reflect.DeepEqual(win.Samples, full.Samples[:2]) {
		t.Errorf("windowed series differs from the parent prefix")
	}
	if win.Scale != full.Scale || win.Workload != full.Workload || win.Machine != full.Machine {
		t.Errorf("windowed series metadata differs: %+v", win)
	}
}

// TestSeriesPrefixWindowingFromStore: a fresh service over a warm store
// serves a never-collected 1..K schedule from the samples a longer
// collection stored — cross-process collection dedup.
func TestSeriesPrefixWindowingFromStore(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{CacheDir: dir})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	full, _, err := cold.Series(bg, w, m, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	denying := func(sim.Workload, *machine.Config, int, float64) (counters.Sample, error) {
		t.Error("simulator invoked although the store holds every sample")
		return counters.Sample{}, nil
	}
	warm := newTestService(t, Config{CacheDir: dir, CollectSample: denying})
	win, hit, err := warm.Series(bg, w, m, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("a series replayed from stored samples should report a cache hit")
	}
	if len(win.Samples) != 2 || !reflect.DeepEqual(win.Samples, full.Samples[:2]) {
		t.Error("replayed series differs from the collected prefix")
	}
}

// TestSweepStreamMatchesBufferedSweep: the streamed cells arrive in plan
// order and agree exactly with the buffered Sweep response; the summary
// reports the deduplicated plan.
func TestSweepStreamMatchesBufferedSweep(t *testing.T) {
	svc := newTestService(t, Config{})
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "intruder"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}
	var streamed []SweepCell
	sum, err := svc.SweepStream(bg, req, func(c SweepCell) error {
		streamed = append(streamed, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, buffered.Cells) {
		t.Errorf("streamed cells differ from buffered sweep:\n%+v\n%+v", streamed, buffered.Cells)
	}
	for i, c := range streamed {
		if want := req.Workloads[i]; c.Workload != want {
			t.Errorf("cell %d is %s, want plan order (%s)", i, c.Workload, want)
		}
	}
	if sum.Cells != 3 || sum.DistinctSeries != 2 || sum.DistinctFits != 2 {
		t.Errorf("summary = %+v, want 3 cells over 2 distinct series/fits", sum)
	}
	if sum.Failures != 0 || !reflect.DeepEqual(sum.Workloads, req.Workloads) {
		t.Errorf("summary metadata: %+v", sum)
	}
}

// TestSweepStreamEmitErrorAborts: an emit failure (a gone client) stops the
// sweep promptly and surfaces the error.
func TestSweepStreamEmitErrorAborts(t *testing.T) {
	svc := newTestService(t, Config{})
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "kmeans"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	}
	calls := 0
	wantErr := context.DeadlineExceeded // any sentinel will do
	_, err := svc.SweepStream(bg, req, func(SweepCell) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Errorf("SweepStream error = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Errorf("emit ran %d times after failing, want 1", calls)
	}
}

// TestSweepStreamWaitsForStartedCells: a sweep the emitter aborts returns
// only after every cell runner it started has returned, so no runner
// outlives the request.
func TestSweepStreamWaitsForStartedCells(t *testing.T) {
	svc := newTestService(t, Config{Workers: 3})
	req := SweepRequest{
		Workloads: []string{"intruder", "genome", "kmeans", "ssca2"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
		Workers:   3,
	}
	var running atomic.Int32
	run := func(ctx context.Context, c *PlannedCell) SweepCell {
		running.Add(1)
		defer running.Add(-1)
		if c.Request.Workload != req.Workloads[0] {
			<-ctx.Done()
		}
		return SweepCell{Workload: c.Request.Workload}
	}
	emitErr := errors.New("client gone")
	if _, err := svc.sweepStream(bg, req, run, func(SweepCell) error { return emitErr }); err != emitErr {
		t.Errorf("sweepStream error = %v, want the emit error", err)
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d cell runners still running after sweepStream returned", n)
	}
}

// TestSweepWindowBeyondMachineFailsAtPlanTime: a sweep or explore cell
// whose window exceeds its machine fails with the error predict answers
// 400 with, and the collector runs for none of its samples, not even the
// in-range ones.
func TestSweepWindowBeyondMachineFailsAtPlanTime(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	const want = `core range "1-8" exceeds the machine's 4 cores`
	resp, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"intruder"}, Machines: []string{"Haswell"}, MeasCores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 1 || len(resp.Cells) != 1 || resp.Cells[0].Error != want || resp.Cells[0].TargetCores != 4 {
		t.Errorf("sweep cell = %+v, want it failed with %q", resp.Cells, want)
	}
	if n := sims.Load(); n != 0 {
		t.Errorf("the sweep's failing cell ran the collector %d times, want 0", n)
	}
	ex, err := svc.Explore(bg, ExploreRequest{Workload: "memcached?skew=1.5,skew=2.5", Machine: "Haswell", MeasCores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, c := range ex.Cells {
		if c.Measured {
			measured++
			if c.Error != want {
				t.Errorf("explore cell %s: error %q, want %q", c.Workload, c.Error, want)
			}
		}
	}
	if measured == 0 {
		t.Error("the explore measured no cell")
	}
	if n := sims.Load(); n != 0 {
		t.Errorf("the explore's failing cells ran the collector %d times, want 0", n)
	}
}

// TestPlanSweepCapsWorkers: a request may narrow the service's fan-out,
// never widen it. The test only plans, so it starts no cell goroutine.
func TestPlanSweepCapsWorkers(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	for _, c := range []struct{ req, want int }{{0, 2}, {1, 1}, {1 << 20, 2}} {
		plan, err := svc.PlanSweep(SweepRequest{Workloads: []string{"intruder"}, Machines: []string{"Haswell"}, Workers: c.req})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Workers != c.want {
			t.Errorf("request for %d workers planned %d, want %d", c.req, plan.Workers, c.want)
		}
	}
}

// Spelling the default checkpoint count shares the fit of leaving it out:
// a Predict without checkpoints, one with the default 2 and a Diagnose of
// the same scenario compute one fit between them.
func TestDefaultCheckpointsShareOneFit(t *testing.T) {
	svc := newTestService(t, Config{})
	for _, chk := range []int{0, 2} {
		if _, err := svc.Predict(bg, PredictRequest{Workload: "genome", Machine: "Haswell", Scale: 0.05, Checkpoints: chk}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Diagnose(bg, DiagnoseRequest{Workload: "genome", Machine: "Haswell", Scale: 0.05, Checkpoints: 2}); err != nil {
		t.Fatal(err)
	}
	if computed, hits := svc.FitCacheStats(); computed != 1 || hits != 2 {
		t.Errorf("fits computed=%d memo hits=%d, want 1 and 2", computed, hits)
	}
}
