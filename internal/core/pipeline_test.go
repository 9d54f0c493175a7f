package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/counters"
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

// Parallel fitting must be bit-identical to the sequential order on the
// fig5 scenario (intruder measured on one Opteron processor): the worker
// count is a throughput knob, never a result knob.
func TestParallelFittingMatchesSerialOnFig5Scenario(t *testing.T) {
	m := machine.Opteron()
	w, err := workloads.Lookup("intruder")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := sim.CollectSeries(w, m, sim.CoreRange(12), 1)
	if err != nil {
		t.Fatal(err)
	}
	var targets []int
	for c := 13; c <= 48; c++ {
		targets = append(targets, c)
	}
	serial, err := Predict(measured, targets, Options{UseSoftware: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Predict(measured, targets, Options{UseSoftware: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Time, parallel.Time) {
		t.Errorf("parallel Time differs from serial:\n%v\n%v", serial.Time, parallel.Time)
	}
	if !reflect.DeepEqual(serial.StallsPerCore, parallel.StallsPerCore) {
		t.Error("parallel StallsPerCore differs from serial")
	}
	for name, f := range serial.CategoryFits {
		if pf := parallel.CategoryFits[name]; pf == nil || pf.String() != f.String() {
			t.Errorf("category %s: serial %s, parallel %v", name, f, pf)
		}
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
		{DatasetScale: -0.5},
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
