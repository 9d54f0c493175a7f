package core

import (
	"math"
	"testing"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// syntheticSeries builds a series whose stall categories follow known
// analytic curves: cat A (flat-ish per-unit work) and cat B (quadratic
// contention), with time = (useful/p + stalls/p) / freq.
func syntheticSeries(maxCores int) *counters.Series {
	s := &counters.Series{Workload: "synthetic", Machine: "TestBox"}
	const useful = 1e9
	for p := 1; p <= maxCores; p++ {
		fp := float64(p)
		a := 2e8 + 1e6*fp  // slowly growing
		b := 1e6 * fp * fp // contention
		cycles := (useful + a + b) / fp
		s.Samples = append(s.Samples, counters.Sample{
			Cores:   p,
			Seconds: cycles / 2.1e9,
			Cycles:  cycles,
			HW:      map[string]float64{"A": a, "B": b},
			Soft:    map[string]float64{},
		})
	}
	return s
}

func TestPredictSyntheticAccuracy(t *testing.T) {
	full := syntheticSeries(48)
	measured := &counters.Series{Workload: full.Workload, Machine: full.Machine,
		Samples: full.Samples[:12]}
	pred, err := Predict(measured, sim.CoreRange(48), Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxPct, meanPct, err := pred.Errors(full)
	if err != nil {
		t.Fatal(err)
	}
	if maxPct > 20 {
		t.Errorf("synthetic max error %.1f%% too high", maxPct)
	}
	if meanPct > 10 {
		t.Errorf("synthetic mean error %.1f%% too high", meanPct)
	}
}

func TestPredictOutputsWellFormed(t *testing.T) {
	measured := &counters.Series{Workload: "w", Machine: "m",
		Samples: syntheticSeries(12).Samples}
	pred, err := Predict(measured, []int{24, 48, 1, 12}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Targets are sorted.
	for i := 1; i < len(pred.TargetCores); i++ {
		if pred.TargetCores[i] <= pred.TargetCores[i-1] {
			t.Error("targets not sorted")
		}
	}
	if !stats.AllFinite(pred.Time) || !stats.AllFinite(pred.StallsPerCore) {
		t.Error("non-finite outputs")
	}
	for _, v := range pred.Time {
		if v <= 0 {
			t.Errorf("non-positive predicted time %v", v)
		}
	}
	if _, err := pred.TimeAt(48); err != nil {
		t.Error(err)
	}
	if _, err := pred.TimeAt(47); err == nil {
		t.Error("TimeAt(47) should error (not a target)")
	}
}

func TestPredictErrorsOnBadInput(t *testing.T) {
	s := syntheticSeries(12)
	if _, err := Predict(&counters.Series{}, []int{4}, Options{}); err == nil {
		t.Error("empty series should error")
	}
	if _, err := Predict(s, nil, Options{}); err == nil {
		t.Error("no targets should error")
	}
	if _, err := Predict(s, []int{0}, Options{}); err == nil {
		t.Error("target 0 should error")
	}
}

func TestPredictSkipsZeroCategories(t *testing.T) {
	s := syntheticSeries(12)
	for i := range s.Samples {
		s.Samples[i].HW["Z"] = 0 // an absent category
	}
	pred, err := Predict(s, []int{24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, fitted := pred.CategoryFits["Z"]; fitted {
		t.Error("all-zero category should not be fitted")
	}
	if vals := pred.CategoryValues["Z"]; len(vals) != 1 || vals[0] != 0 {
		t.Errorf("zero category values = %v", vals)
	}
}

func TestFrequencyScaling(t *testing.T) {
	s := syntheticSeries(12)
	base, err := Predict(s, []int{24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Predict(s, []int{24}, Options{FreqRatio: 3.4 / 2.8})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Time[0] * 3.4 / 2.8
	if math.Abs(scaled.Time[0]-want)/want > 1e-9 {
		t.Errorf("freq scaling: got %v want %v", scaled.Time[0], want)
	}
}

func TestWeakScalingDatasetFactor(t *testing.T) {
	s := syntheticSeries(12)
	base, err := Predict(s, []int{24}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Predict(s, []int{24}, Options{DatasetScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the dataset doubles extrapolated stalls, hence stalls/core.
	if math.Abs(weak.StallsPerCore[0]-2*base.StallsPerCore[0])/base.StallsPerCore[0] > 1e-9 {
		t.Errorf("weak stalls/core %v, want 2x %v", weak.StallsPerCore[0], base.StallsPerCore[0])
	}
	if weak.Time[0] <= base.Time[0] {
		t.Error("2x dataset should predict longer time")
	}
}

// The Fig 5 scenario: measure intruder on one Opteron processor (12 cores),
// predict the full machine (48 cores), and check the prediction captures
// the application's scalability (stop point and shape), with bounded error.
//
// Shrinking the dataset changes intruder's contention profile (the stop
// point collapses below the measurement window), so -short keeps full
// dataset fidelity but samples the heavyweight actual-vs-predicted
// comparison on a sparse target grid: the dense 36-point actual series is
// ~10s of the full run's ~12s of simulation.
func TestIntruderFig5EndToEnd(t *testing.T) {
	step, maxErr := 1, 60.0
	if testing.Short() {
		step = 7
	}
	m := machine.Opteron()
	w, err := workloads.Lookup("intruder")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := sim.CollectSeries(w, m, sim.CoreRange(12), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on the extrapolated region (beyond the measurement window),
	// as the paper's Table 4 does.
	var targets []int
	for c := 13; c <= 48; c += step {
		targets = append(targets, c)
	}
	if targets[len(targets)-1] != 48 {
		targets = append(targets, 48)
	}
	actual, err := sim.CollectSeries(w, m, targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(measured, targets, Options{UseSoftware: true})
	if err != nil {
		t.Fatal(err)
	}
	maxPct, meanPct, err := pred.Errors(actual)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("intruder 12→48: max err %.1f%%, mean %.1f%%", maxPct, meanPct)
	if maxPct > maxErr {
		t.Errorf("max error %.1f%% too high", maxPct)
	}
	// The qualitative claim: ESTIMA never predicts that a non-scaling
	// application scales. intruder stops scaling mid-range; the prediction
	// must also stop mid-range (not at the full machine).
	predStop := pred.ScalingStop()
	actStop := ScalingStopOf(actual)
	t.Logf("scaling stop: predicted %d, actual %d", predStop, actStop)
	if predStop > 36 {
		t.Errorf("prediction says intruder scales to %d cores; it stops at %d", predStop, actStop)
	}
}

func TestBottlenecksRankAndAttribute(t *testing.T) {
	m := machine.Opteron()
	w, err := workloads.Lookup("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := sim.CollectSeries(w, m, sim.CoreRange(12), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(measured, sim.CoreRange(48), Options{UseSoftware: true})
	if err != nil {
		t.Fatal(err)
	}
	bns, err := pred.Bottlenecks(measured, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bns) == 0 {
		t.Fatal("no bottlenecks")
	}
	// Ranked descending.
	for i := 1; i < len(bns); i++ {
		if bns[i].PredictedCycles > bns[i-1].PredictedCycles {
			t.Error("bottlenecks not sorted")
		}
	}
	// The barrier wait must rank at the top for streamcluster, and its top
	// site must be the PARSEC barrier (the §4.6 finding).
	if bns[0].Category != counters.SoftBarrierWait {
		t.Errorf("top bottleneck = %s, want %s", bns[0].Category, counters.SoftBarrierWait)
	}
	if len(bns[0].TopSites) == 0 || bns[0].TopSites[0].Site != "pthread_mutex_trylock/barrier" {
		t.Errorf("top site = %+v, want the pthread barrier", bns[0].TopSites)
	}
}

func TestBandErrors(t *testing.T) {
	full := syntheticSeries(48)
	measured := &counters.Series{Workload: full.Workload, Machine: full.Machine,
		Samples: full.Samples[:12]}
	pred, err := Predict(measured, sim.CoreRange(48), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bands, err := pred.BandErrors(full, []ErrorBand{
		{Label: "2 CPUs", MinCores: 12, MaxCores: 24},
		{Label: "3 CPUs", MinCores: 24, MaxCores: 36},
		{Label: "4 CPUs", MinCores: 36, MaxCores: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 3 {
		t.Fatalf("bands = %d", len(bands))
	}
	for _, b := range bands {
		if b.MaxPctError < 0 || math.IsNaN(b.MaxPctError) {
			t.Errorf("band %s error %v", b.Label, b.MaxPctError)
		}
	}
	if _, err := pred.BandErrors(full, []ErrorBand{{Label: "empty", MinCores: 100, MaxCores: 200}}); err == nil {
		t.Error("empty band should error")
	}
}

// TestPctErrors pins the scoring rule: only core counts in (lo, hi] that
// the actual series measured pair up, and an empty pairing is not ok.
func TestPctErrors(t *testing.T) {
	actual := &counters.Series{Samples: []counters.Sample{
		{Cores: 1, Seconds: 10}, {Cores: 2, Seconds: 5}, {Cores: 4, Seconds: 2},
	}}
	cores := []float64{1, 2, 3, 4}
	times := []float64{20, 6, 1, 3}
	for _, c := range []struct {
		lo, hi       int
		maxPct, mean float64
		ok           bool
	}{
		{0, 4, 100, 170.0 / 3, true}, // 100%, 20%, 50%: core 3 was not measured
		{1, 4, 50, 35, true},
		{1, 3, 20, 20, true},
		{2, 3, 0, 0, false},
	} {
		maxPct, mean, ok := PctErrors(cores, times, actual, c.lo, c.hi)
		if ok != c.ok || math.Abs(maxPct-c.maxPct) > 1e-9 || math.Abs(mean-c.mean) > 1e-9 {
			t.Errorf("(%d, %d]: got %v %v %v, want %v %v %v", c.lo, c.hi, maxPct, mean, ok, c.maxPct, c.mean, c.ok)
		}
	}
}

// TestFactorStageFallsBack: sqlite measured on 4 Haswell cores at scale
// 0.05 defeats every Table 1 kernel for the scaling factor. The factor
// stage then falls back to the same linear continuation as the category
// stage instead of failing the prediction.
func TestFactorStageFallsBack(t *testing.T) {
	w, err := workloads.Lookup("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.CollectSeries(w, machine.HaswellDesktop(), sim.CoreRange(4), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(s, sim.CoreRange(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.FactorFit.Kernel != fit.Linear {
		t.Errorf("factor fit %s, want the linear last resort", pred.FactorFit)
	}
}

func TestCheckpointOptionPropagates(t *testing.T) {
	s := syntheticSeries(12)
	p2, err := Predict(s, []int{24}, Options{Checkpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := Predict(s, []int{24}, Options{Checkpoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both must work; they may choose different fits.
	if p2.Time[0] <= 0 || p4.Time[0] <= 0 {
		t.Error("checkpoint variants produced bad times")
	}
}

func TestKernelSubsetOption(t *testing.T) {
	s := syntheticSeries(12)
	pred, err := Predict(s, []int{24}, Options{Kernels: []*fit.Kernel{fit.CubicLn, fit.Poly25}})
	if err != nil {
		t.Fatal(err)
	}
	for cat, f := range pred.CategoryFits {
		if f.Kernel != fit.CubicLn && f.Kernel != fit.Poly25 {
			t.Errorf("category %s used kernel %s outside the subset", cat, f.Kernel.Name)
		}
	}
}
