package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/pool"
)

// Pipeline is the staged form of the §3 prediction pipeline. Each stage is
// independently callable and testable:
//
//	Extrapolate  step B: fit every stall category and evaluate it over the
//	             targets, fanned out across a bounded worker pool;
//	Combine      sum the per-category extrapolations into total stalled
//	             cycles per core;
//	SelectFactor step C: fit the stalls-to-time scaling factor by
//	             correlation;
//	Times        apply the factor (and cross-machine frequency ratio) to
//	             produce the execution-time predictions.
//
// Run composes the stages — plus the optional residual-bootstrap stage that
// turns point estimates into confidence bands — and Predict is a thin
// wrapper over Run.
type Pipeline struct {
	// opt holds the resolved options; err is the validation verdict on
	// the options as given.
	opt Options
	err error
}

// NewPipeline validates the options shared by all stages and resolves
// their defaults, once.
func NewPipeline(opt Options) *Pipeline {
	return &Pipeline{opt: opt.Resolved(), err: opt.Validate()}
}

// runIndexed calls fn(i) for i in [0, n) from at most Options.Workers
// goroutines and waits for all of them. fn writes results by index, so
// completion order never affects the outcome. Each call holds one slot of
// the shared Gate, when set. Once ctx is done, items not yet started are
// skipped and runIndexed returns ctx.Err(); items already running finish
// (each is one fit, bounded work).
func (pl *Pipeline) runIndexed(ctx context.Context, n int, fn func(i int)) error {
	gate := pl.opt.Gate
	pool.ForN(n, pl.opt.Workers, func(i int) {
		if ctx.Err() != nil {
			return
		}
		if gate != nil {
			select {
			case gate <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-gate }()
		}
		fn(i)
	})
	return ctx.Err()
}

// fitOptions is the fit configuration shared by the extrapolation and
// factor stages; MaxX tracks the largest requested target.
func (pl *Pipeline) fitOptions(targets []float64) fit.Options {
	return fit.Options{
		Checkpoints: pl.opt.Checkpoints,
		MaxX:        targets[len(targets)-1],
		Kernels:     pl.opt.Kernels,
		// Between the measurement window and a 4x larger machine, stall
		// categories realistically grow by at most ~an order of magnitude;
		// 20x headroom keeps runaway rationals out without constraining
		// real trends. The tail-slope cap additionally ties the allowed
		// growth to the trend visible at the end of the window.
		MaxGrowth:    20,
		TailSlopeCap: 4,
	}
}

// Targets normalizes raw target core counts into the stage x-axis:
// validated, sorted ascending, duplicates removed.
func Targets(targetCores []int) ([]float64, error) {
	if len(targetCores) == 0 {
		return nil, errors.New("core: no target core counts")
	}
	seen := make(map[int]bool, len(targetCores))
	targets := make([]float64, 0, len(targetCores))
	for _, c := range targetCores {
		if c < 1 {
			return nil, fmt.Errorf("core: bad target core count %d", c)
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		targets = append(targets, float64(c))
	}
	sort.Float64s(targets)
	return targets, nil
}

// category is one stall series to extrapolate.
type category struct {
	name string
	ys   []float64
}

// categories lists the stall series the options select, sorted by name so
// every stage iterates (and sums) in a stable order.
func categories(series *counters.Series, opt Options) []category {
	var cats []category
	for _, code := range series.EventCodes() {
		cats = append(cats, category{code, series.Event(code)})
	}
	if opt.UseSoftware {
		for _, name := range series.SoftNames() {
			cats = append(cats, category{name, series.SoftCategory(name)})
		}
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].name < cats[j].name })
	return cats
}

// Extrapolation is step B's output: every stall category extrapolated
// individually over the target core counts.
type Extrapolation struct {
	// Targets are the normalized target core counts (see Targets).
	Targets []float64
	// Names are the category names in stable (sorted) order; all-zero
	// categories appear here with zero values and no fit.
	Names []string
	// Fits maps category to its selected extrapolation function.
	Fits map[string]*fit.Fit
	// Values maps category to its extrapolated values over Targets
	// (dataset-scaled, clamped non-negative).
	Values map[string][]float64

	// measured keeps the per-category measurement series for the
	// bootstrap stage (residuals are computed against these).
	measured []category
}

// Extrapolate runs step B on a measured series. Per-category fitting — one
// fit.Approximate search per category, the dominant cost of a prediction —
// runs across the pipeline's worker pool. Each category is fitted
// independently, so the result is identical to the sequential order
// regardless of worker count. Cancelling ctx aborts the fan-out and
// returns ctx.Err().
func (pl *Pipeline) Extrapolate(ctx context.Context, series *counters.Series, targets []float64) (*Extrapolation, error) {
	if pl.err != nil {
		return nil, pl.err
	}
	if len(series.Samples) < 2 {
		return nil, ErrTooFewSamples
	}
	if len(targets) == 0 {
		return nil, errors.New("core: no target core counts")
	}
	xs := series.Cores()
	fopt := pl.fitOptions(targets)
	cats := categories(series, pl.opt)

	ex := &Extrapolation{
		Targets:  targets,
		Fits:     map[string]*fit.Fit{},
		Values:   map[string][]float64{},
		measured: cats,
	}
	type result struct {
		f    *fit.Fit
		vals []float64
		err  error
	}
	results := make([]result, len(cats))
	if err := pl.runIndexed(ctx, len(cats), func(i int) {
		if allNearZero(cats[i].ys) {
			results[i] = result{vals: make([]float64, len(targets))}
			return
		}
		f, err := approximateRelaxing(xs, cats[i].ys, fopt)
		if err != nil {
			results[i] = result{err: err}
			return
		}
		results[i] = result{f: f, vals: evalClamped(f, targets, pl.opt.DatasetScale)}
	}); err != nil {
		return nil, err
	}

	for i, cat := range cats {
		r := results[i]
		if r.err != nil {
			return nil, fmt.Errorf("core: extrapolating %s for %s: %w", cat.name, series.Workload, r.err)
		}
		ex.Names = append(ex.Names, cat.name)
		if r.f != nil {
			ex.Fits[cat.name] = r.f
		}
		ex.Values[cat.name] = r.vals
	}
	return ex, nil
}

// evalClamped evaluates a fit over the targets, applying the weak-scaling
// dataset factor and clamping negatives to zero (stall counts are counts).
func evalClamped(f *fit.Fit, targets []float64, scale float64) []float64 {
	vals := make([]float64, len(targets))
	for i, x := range targets {
		v := f.Eval(x) * scale
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	return vals
}

// Combine sums the per-category extrapolations into total stalled cycles
// per core at each target. Summation follows the stable Names order, so
// the result never depends on map iteration order.
func (pl *Pipeline) Combine(ex *Extrapolation) []float64 {
	spc := make([]float64, len(ex.Targets))
	for i, x := range ex.Targets {
		total := 0.0
		for _, name := range ex.Names {
			total += ex.Values[name][i]
		}
		spc[i] = total / x
	}
	return spc
}

// SelectFactor runs step C: the scaling factor connecting stalls per core
// to time. The factor is computed from the measurements, extrapolated with
// the same kernels, and selected for maximum correlation of the produced
// time predictions with the extrapolated stalls per core (§3.1.3).
func (pl *Pipeline) SelectFactor(series *counters.Series, targets, stallsPerCore []float64) (*fit.Fit, error) {
	xs := series.Cores()
	times := series.Times()
	factor, err := measuredFactor(series, pl.opt)
	if err != nil {
		return nil, err
	}
	factorOpt := pl.fitOptions(targets)
	// Sanity bounds on the produced time predictions: relative to the
	// highest-core measurement, adding cores cannot plausibly slow the
	// application by more than ~4x or speed it up by more than ~10x.
	lastTime := times[len(times)-1]
	factorOpt.LoBound = lastTime / 10
	factorOpt.HiBound = lastTime * 4
	ffit, err := fit.SelectByCorrelation(xs, factor, targets, stallsPerCore, factorOpt)
	if err != nil {
		ffit, err = fit.SelectByCorrelation(xs, factor, targets, stallsPerCore, lastResort(factorOpt))
	}
	if err != nil {
		return nil, fmt.Errorf("core: fitting scaling factor for %s: %w", series.Workload, err)
	}
	return ffit, nil
}

// measuredFactor returns the measured time-per-stall-per-core series the
// factor stage fits.
func measuredFactor(series *counters.Series, opt Options) ([]float64, error) {
	xs := series.Cores()
	times := series.Times()
	measuredSPC := series.StallsPerCore(opt.UseSoftware, false)
	factor := make([]float64, len(xs))
	for i := range xs {
		if measuredSPC[i] <= 0 {
			return nil, fmt.Errorf("core: zero measured stalls per core at %v cores", xs[i])
		}
		factor[i] = times[i] / measuredSPC[i]
	}
	return factor, nil
}

// Times applies the selected factor and the cross-machine frequency ratio
// to the combined stalls per core, producing execution-time predictions.
func (pl *Pipeline) Times(ffit *fit.Fit, targets, stallsPerCore []float64) ([]float64, error) {
	if pl.err != nil {
		return nil, pl.err
	}
	out := make([]float64, len(targets))
	for i, x := range targets {
		t := ffit.Eval(x) * stallsPerCore[i] * pl.opt.FreqRatio
		if !finiteNonNegative(t) {
			return nil, fmt.Errorf("core: unrealistic time prediction %v at %v cores", t, x)
		}
		out[i] = t
	}
	return out, nil
}

// FitArtifact is the fitted-model half of a prediction: everything the
// expensive stages produce — the per-category extrapolation fits of step B,
// their combined stalls per core, and step C's selected scaling-factor fit —
// bound to the series and normalized targets they were fitted on. The
// artifact is the unit the sweep planner memoizes: Finish turns it into a
// Prediction without re-running any fit search, so repeated sweeps over the
// same (series, options, targets) input pay the fitting cost once.
// A FitArtifact is immutable after Fit returns and safe to share.
type FitArtifact struct {
	// Series is the measured input the fits were selected on.
	Series *counters.Series
	// Targets are the normalized target core counts (see Targets).
	Targets []float64
	// Extrapolation is step B's output over Targets.
	Extrapolation *Extrapolation
	// StallsPerCore is Combine's total over Targets.
	StallsPerCore []float64
	// FactorFit is the scaling-factor function selected by correlation.
	FactorFit *fit.Fit
}

// Fit runs the expensive fitting stages — Extrapolate, Combine and
// SelectFactor — and returns their result as a reusable artifact. Cancelling
// ctx aborts the fitting worker pool and returns ctx.Err().
func (pl *Pipeline) Fit(ctx context.Context, series *counters.Series, targetCores []int) (*FitArtifact, error) {
	if pl.err != nil {
		return nil, pl.err
	}
	if len(series.Samples) < 2 {
		return nil, ErrTooFewSamples
	}
	targets, err := Targets(targetCores)
	if err != nil {
		return nil, err
	}
	ex, err := pl.Extrapolate(ctx, series, targets)
	if err != nil {
		return nil, err
	}
	spc := pl.Combine(ex)
	ffit, err := pl.SelectFactor(series, targets, spc)
	if err != nil {
		return nil, err
	}
	return &FitArtifact{
		Series:        series,
		Targets:       targets,
		Extrapolation: ex,
		StallsPerCore: spc,
		FactorFit:     ffit,
	}, nil
}

// Finish applies a fitted artifact: the factor and frequency ratio produce
// the time predictions, and, when Options.Bootstrap is set, the
// residual-bootstrap stage fills TimeLo/TimeHi and the stability scores.
// The artifact is not modified; Finish may be called repeatedly.
func (pl *Pipeline) Finish(ctx context.Context, art *FitArtifact) (*Prediction, error) {
	times, err := pl.Times(art.FactorFit, art.Targets, art.StallsPerCore)
	if err != nil {
		return nil, err
	}
	p := &Prediction{
		Workload:       art.Series.Workload,
		MeasuredOn:     art.Series.Machine,
		MeasuredCores:  art.Series.Cores(),
		TargetCores:    art.Targets,
		CategoryFits:   art.Extrapolation.Fits,
		CategoryValues: art.Extrapolation.Values,
		StallsPerCore:  art.StallsPerCore,
		FactorFit:      art.FactorFit,
		Time:           times,
	}
	if pl.opt.Bootstrap > 0 {
		if err := pl.bootstrap(ctx, art.Series, art.Extrapolation, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Run composes the stages into a full prediction: Fit (extrapolate, combine,
// select the factor) then Finish (apply the factor; bootstrap when
// configured). Cancelling ctx stops the fitting and bootstrap worker pools
// promptly and returns ctx.Err().
func (pl *Pipeline) Run(ctx context.Context, series *counters.Series, targetCores []int) (*Prediction, error) {
	art, err := pl.Fit(ctx, series, targetCores)
	if err != nil {
		return nil, err
	}
	return pl.Finish(ctx, art)
}
