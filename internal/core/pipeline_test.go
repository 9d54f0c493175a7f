package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestTargetsSortsAndDeduplicates(t *testing.T) {
	got, err := Targets([]int{24, 24, 48, 1, 24, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 24, 48}; !reflect.DeepEqual(got, want) {
		t.Errorf("Targets = %v, want %v", got, want)
	}
	if _, err := Targets(nil); err == nil {
		t.Error("no targets should error")
	}
	if _, err := Targets([]int{4, 0}); err == nil {
		t.Error("target 0 should error")
	}
}

// Duplicate target core counts must not produce duplicate prediction rows
// (regression: Predict used to sort but not dedupe).
func TestPredictDeduplicatesTargets(t *testing.T) {
	s := syntheticSeries(12)
	pred, err := Predict(s, []int{24, 48, 24, 48, 24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{24, 48}; !reflect.DeepEqual(pred.TargetCores, want) {
		t.Errorf("TargetCores = %v, want %v", pred.TargetCores, want)
	}
	if len(pred.Time) != 2 || len(pred.StallsPerCore) != 2 {
		t.Errorf("prediction rows = %d/%d, want 2", len(pred.Time), len(pred.StallsPerCore))
	}
	single, err := Predict(s, []int{24, 48}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pred.Time, single.Time) {
		t.Errorf("deduped prediction %v differs from plain %v", pred.Time, single.Time)
	}
}

// Fit + Finish is the memoizable split the sweep planner relies on: the
// artifact must capture everything, so finishing it (twice) reproduces Run
// exactly — bootstrap bands included — without re-running any fit search.
func TestFitArtifactFinishMatchesRun(t *testing.T) {
	s := syntheticSeries(12)
	opt := Options{Bootstrap: 30, Seed: 7}
	pl := NewPipeline(opt)
	art, err := pl.Fit(context.Background(), s, []int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pl.Finish(context.Background(), art)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pl.Finish(context.Background(), art)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pl.Run(context.Background(), s, []int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Prediction{"finish": first, "re-finish": again} {
		if !reflect.DeepEqual(got.Time, direct.Time) {
			t.Errorf("%s Time %v differs from Run %v", name, got.Time, direct.Time)
		}
		if !reflect.DeepEqual(got.TimeLo, direct.TimeLo) || !reflect.DeepEqual(got.TimeHi, direct.TimeHi) {
			t.Errorf("%s bootstrap bands differ from Run", name)
		}
		if !reflect.DeepEqual(got.Stability, direct.Stability) {
			t.Errorf("%s stability scores differ from Run", name)
		}
	}
	if art.Series != s || len(art.Targets) != 3 || art.FactorFit == nil {
		t.Errorf("artifact not fully populated: %+v", art)
	}
}

// The staged pipeline must compose to exactly what Predict returns.
func TestPipelineStagesComposeToPredict(t *testing.T) {
	s := syntheticSeries(12)
	opt := Options{}
	pl := NewPipeline(opt)
	targets, err := Targets([]int{16, 24, 48})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pl.Extrapolate(context.Background(), s, targets)
	if err != nil {
		t.Fatal(err)
	}
	spc := pl.Combine(ex)
	ffit, err := pl.SelectFactor(s, targets, spc)
	if err != nil {
		t.Fatal(err)
	}
	times, err := pl.Times(ffit, targets, spc)
	if err != nil {
		t.Fatal(err)
	}

	pred, err := Predict(s, []int{16, 24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(times, pred.Time) {
		t.Errorf("staged times %v != Predict times %v", times, pred.Time)
	}
	if !reflect.DeepEqual(spc, pred.StallsPerCore) {
		t.Errorf("staged stalls/core %v != Predict %v", spc, pred.StallsPerCore)
	}
	if ffit.String() != pred.FactorFit.String() {
		t.Errorf("staged factor %s != Predict %s", ffit, pred.FactorFit)
	}
	for name, f := range ex.Fits {
		if pf := pred.CategoryFits[name]; pf == nil || pf.String() != f.String() {
			t.Errorf("category %s: staged fit %s != Predict fit %v", name, f, pf)
		}
	}
}

// Parallel fitting must be bit-identical to the sequential order: the
// worker count is a throughput knob, never a result knob. Predictions at
// 1, 2 and 8 workers must hash equal, every bit of every time, band,
// stability score and selected fit, with and without bootstrap bands, on
// the fig5 scenario (intruder measured on one Opteron processor) and on
// sqlite measured on 4 Haswell cores, whose factor falls back to the
// lastResort linear fit.
func TestParallelFittingMatchesSerialOnFig5Scenario(t *testing.T) {
	collect := func(name string, m *machine.Config, cores int, scale float64) *counters.Series {
		t.Helper()
		w, err := workloads.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.CollectSeries(w, m, sim.CoreRange(cores), scale)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	intruder := collect("intruder", machine.Opteron(), 12, 1)
	sqlite := collect("sqlite", machine.HaswellDesktop(), 4, 0.05)
	var fig5 []int
	for c := 13; c <= 48; c++ {
		fig5 = append(fig5, c)
	}
	for _, c := range []struct {
		name       string
		series     *counters.Series
		targets    []int
		opt        Options
		lastResort bool
	}{
		{"fig5", intruder, fig5, Options{UseSoftware: true}, false},
		{"fig5 bootstrap", intruder, fig5, Options{UseSoftware: true, Bootstrap: 40}, false},
		{"factor last resort", sqlite, sim.CoreRange(20), Options{}, true},
		{"factor last resort bootstrap", sqlite, sim.CoreRange(20), Options{Bootstrap: 40}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var serial string
			for _, workers := range []int{1, 2, 8} {
				opt := c.opt
				opt.Workers = workers
				p, err := Predict(c.series, c.targets, opt)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if (p.FactorFit.Kernel == fit.Linear) != c.lastResort {
					t.Fatalf("%d workers: factor fit %s; the case needs lastResort = %v", workers, p.FactorFit, c.lastResort)
				}
				if (p.TimeHi != nil) != (c.opt.Bootstrap > 0) {
					t.Fatalf("%d workers: bands %v with %d bootstrap replicates", workers, p.TimeHi, c.opt.Bootstrap)
				}
				h := predictionHash(p)
				if workers == 1 {
					serial = h
				} else if h != serial {
					t.Errorf("%d workers: prediction hash %s, serial %s", workers, h, serial)
				}
			}
		})
	}
}

// Fit runs the factor's search in the categories' fan-out, yet reports
// errors in stage order: a category's extrapolation error before the
// measured factor's, and a cancelled context before either.
func TestFitReportsErrorsInStageOrder(t *testing.T) {
	s := syntheticSeries(12)
	// No stalls at one core: the measured factor divides by zero there.
	s.Samples[0].HW = map[string]float64{"A": 0, "B": 0}
	pl := NewPipeline(Options{})
	if _, err := pl.Fit(context.Background(), s, []int{24}); err == nil || !strings.Contains(err.Error(), "zero measured stalls per core") {
		t.Errorf("Fit = %v, want the measured factor's error", err)
	}
	// A non-finite stall count fails category B's search as well.
	s.Samples[5].HW["B"] = math.Inf(1)
	if _, err := pl.Fit(context.Background(), s, []int{24}); err == nil || !strings.Contains(err.Error(), "extrapolating B") {
		t.Errorf("Fit = %v, want category B's error first", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Fit(ctx, s, []int{24}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Fit = %v, want context.Canceled", err)
	}
}

func TestExtrapolateKeepsZeroCategories(t *testing.T) {
	s := syntheticSeries(12)
	for i := range s.Samples {
		s.Samples[i].HW["Z"] = 0
	}
	pl := NewPipeline(Options{})
	targets, _ := Targets([]int{24})
	ex, err := pl.Extrapolate(context.Background(), s, targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, fitted := ex.Fits["Z"]; fitted {
		t.Error("all-zero category should not be fitted")
	}
	if vals := ex.Values["Z"]; len(vals) != 1 || vals[0] != 0 {
		t.Errorf("zero category values = %v", vals)
	}
	found := false
	for _, n := range ex.Names {
		if n == "Z" {
			found = true
		}
	}
	if !found {
		t.Error("zero category missing from Names")
	}
}

func TestBootstrapBandsContainPointEstimate(t *testing.T) {
	full := syntheticSeries(48)
	measured := &counters.Series{Workload: full.Workload, Machine: full.Machine,
		Samples: full.Samples[:12]}
	pred, err := Predict(measured, sim.CoreRange(48), Options{Bootstrap: 200, CILevel: 90})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.TimeLo) != len(pred.Time) || len(pred.TimeHi) != len(pred.Time) {
		t.Fatalf("band lengths lo=%d hi=%d want %d", len(pred.TimeLo), len(pred.TimeHi), len(pred.Time))
	}
	if pred.CILevel != 90 {
		t.Errorf("CILevel = %v, want 90", pred.CILevel)
	}
	if pred.Bootstraps < 100 {
		t.Errorf("only %d/200 realistic replicates", pred.Bootstraps)
	}
	for i := range pred.Time {
		if pred.TimeLo[i] > pred.Time[i] || pred.TimeHi[i] < pred.Time[i] {
			t.Errorf("band [%g, %g] at %v cores excludes estimate %g",
				pred.TimeLo[i], pred.TimeHi[i], pred.TargetCores[i], pred.Time[i])
		}
		if pred.TimeLo[i] < 0 || math.IsNaN(pred.TimeLo[i]) || math.IsInf(pred.TimeHi[i], 0) {
			t.Errorf("degenerate band [%g, %g]", pred.TimeLo[i], pred.TimeHi[i])
		}
	}
	for cat, s := range pred.Stability {
		if s <= 0 || s > 1 || math.IsNaN(s) {
			t.Errorf("category %s stability %v outside (0, 1]", cat, s)
		}
	}
	if pred.FactorStability <= 0 || pred.FactorStability > 1 {
		t.Errorf("factor stability %v outside (0, 1]", pred.FactorStability)
	}
}

// The bands are a deterministic function of (series, options): same seed,
// same bands; a different seed reshuffles the resamples.
func TestBootstrapIsDeterministicPerSeed(t *testing.T) {
	s := syntheticSeries(12)
	opt := Options{Bootstrap: 80, Workers: 4}
	a, err := Predict(s, []int{24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(s, []int{24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.TimeLo, b.TimeLo) || !reflect.DeepEqual(a.TimeHi, b.TimeHi) {
		t.Errorf("same seed, different bands: %v/%v vs %v/%v", a.TimeLo, a.TimeHi, b.TimeLo, b.TimeHi)
	}
	opt.Seed = 12345
	c, err := Predict(s, []int{24, 48}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.TimeLo, c.TimeLo) && reflect.DeepEqual(a.TimeHi, c.TimeHi) {
		t.Error("different seeds produced identical bands (suspicious)")
	}
}

// Options that earlier versions silently "fixed" must now be rejected at
// the pipeline boundary.
func TestOptionsValidateRejectsBadValues(t *testing.T) {
	bad := []Options{
		{Workers: -1},
		{Bootstrap: -5},
		{Checkpoints: -2},
		{CILevel: -10},
		{CILevel: 100},
		{CILevel: 250},
		{CILevel: math.NaN()},
		{CILevel: math.Inf(1)},
		{CILevel: math.Inf(-1)},
		{FreqRatio: -1},
		{FreqRatio: math.NaN()},
		{FreqRatio: math.Inf(1)},
		{FreqRatio: math.Inf(-1)},
		{DatasetScale: -0.5},
		{DatasetScale: math.NaN()},
		{DatasetScale: math.Inf(1)},
		{DatasetScale: math.Inf(-1)},
	}
	s := syntheticSeries(12)
	for _, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", opt)
		}
		if _, err := Predict(s, []int{24}, opt); err == nil {
			t.Errorf("Predict with %+v should fail validation", opt)
		}
	}
	good := []Options{
		{}, // all defaults
		{Workers: 4, Bootstrap: 10, CILevel: 95, Checkpoints: 2},
		{FreqRatio: 1.5, DatasetScale: 2},
	}
	for _, opt := range good {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opt, err)
		}
	}
}

// TestOptionsFingerprintNormalizesDefaults: spelling a default explicitly
// must share artifacts with omitting it, and real option changes must not.
func TestOptionsFingerprintNormalizesDefaults(t *testing.T) {
	fingerprint := func(o Options) string {
		t.Helper()
		fp, ok := o.Fingerprint()
		if !ok {
			t.Fatalf("Fingerprint(%+v) has no canonical form", o)
		}
		return fp
	}
	base := fingerprint(Options{})
	same := []Options{
		{Checkpoints: 2},
		{FreqRatio: 1},
		{DatasetScale: 1},
		{Workers: 7},                // throughput knob, never a result knob
		{Gate: make(chan struct{})}, // same
		{CILevel: 42, Seed: 9},      // meaningless without Bootstrap
	}
	for _, opt := range same {
		if got := fingerprint(opt); got != base {
			t.Errorf("fingerprint(%+v) = %q, want %q", opt, got, base)
		}
	}
	boot := fingerprint(Options{Bootstrap: 50})
	if fingerprint(Options{Bootstrap: 50, CILevel: DefaultCILevel, Seed: 1}) != boot {
		t.Error("bootstrap defaults must normalize")
	}
	diff := []Options{
		{UseSoftware: true},
		{Checkpoints: 4},
		{FreqRatio: 2},
		{DatasetScale: 2},
		{Bootstrap: 50},
	}
	for _, opt := range diff {
		if fingerprint(opt) == base {
			t.Errorf("fingerprint(%+v) must differ from the zero options", opt)
		}
	}
	if fingerprint(Options{Bootstrap: 50, Seed: 2}) == boot {
		t.Error("bootstrap seed must be part of the fingerprint")
	}
	if _, ok := (Options{Kernels: []*fit.Kernel{fit.Linear}}).Fingerprint(); ok {
		t.Error("a custom kernel library must have no canonical fingerprint")
	}
}

// Pipelines sharing a Gate share its slots: two pipelines of 4 workers
// each over one 2-slot gate never run more than 2 calls at once, and each
// runs every index exactly once. A cancelled context runs nothing.
func TestRunIndexedSharesGateAndSkipsOnCancel(t *testing.T) {
	const n = 50
	gate := make(chan struct{}, 2)
	var mu sync.Mutex
	cur, peak := 0, 0
	// The first two calls wait for each other, so both gate slots are
	// provably held at once without timing assumptions.
	var arrived atomic.Int32
	both := make(chan struct{})
	var hits [2][n]atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl := NewPipeline(Options{Workers: 4, Gate: gate})
			err := pl.runIndexed(context.Background(), n, func(i int) {
				mu.Lock()
				cur++
				peak = max(peak, cur)
				mu.Unlock()
				if arrived.Add(1) == 2 {
					close(both)
				}
				<-both
				hits[p][i].Add(1)
				mu.Lock()
				cur--
				mu.Unlock()
			})
			if err != nil {
				t.Errorf("runIndexed = %v", err)
			}
		}()
	}
	wg.Wait()
	if peak != 2 {
		t.Errorf("peak concurrent calls = %d, want the gate's 2", peak)
	}
	for p := range hits {
		for i := range hits[p] {
			if got := hits[p][i].Load(); got != 1 {
				t.Errorf("pipeline %d ran index %d %d times, want 1", p, i, got)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := NewPipeline(Options{Workers: 4, Gate: gate}).runIndexed(ctx, n, func(i int) {
		t.Errorf("index %d ran under a cancelled context", i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("runIndexed under a cancelled context = %v, want context.Canceled", err)
	}
}

// A cancelled context must abort Run promptly, even mid-bootstrap with a
// large replicate count still queued.
func TestRunAbortsOnContextCancel(t *testing.T) {
	s := syntheticSeries(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPipeline(Options{}).Run(ctx, s, []int{24, 48}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run = %v, want context.Canceled", err)
	}

	// Cancel while the bootstrap stage is grinding through replicates: Run
	// must return context.Canceled well before the full replicate count
	// could have finished.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := NewPipeline(Options{Bootstrap: 1 << 20, Workers: 2}).Run(ctx, s, []int{24, 48})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the bootstrap fan-out
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled Run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not abort after cancellation")
	}
}

func TestPredictWithoutBootstrapHasNoBands(t *testing.T) {
	s := syntheticSeries(12)
	pred, err := Predict(s, []int{24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TimeLo != nil || pred.TimeHi != nil || pred.Stability != nil {
		t.Error("bands/stability must be nil without Options.Bootstrap")
	}
	if pred.CILevel != 0 || pred.Bootstraps != 0 {
		t.Errorf("CILevel=%v Bootstraps=%d, want zero values", pred.CILevel, pred.Bootstraps)
	}
}
