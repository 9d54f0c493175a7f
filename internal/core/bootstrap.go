package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/stats"
)

// DefaultCILevel is the two-sided confidence level (in percent) used when
// Options.Bootstrap is set without an explicit Options.CILevel.
const DefaultCILevel = 90

// bootRep is one bootstrap replicate's outcome.
type bootRep struct {
	// times are the replicate's time predictions per target; nil when the
	// replicate produced no realistic prediction.
	times []float64
	// catLast holds each fitted category's extrapolated value at the
	// largest target (NaN when the category's refit diverged or was never
	// reached because an earlier category aborted the replicate).
	catLast []float64
	// catAttempted marks categories whose refit actually ran in this
	// replicate; an abort at category i leaves i+1.. unattempted, and
	// those must not count against their stability scores.
	catAttempted []bool
	// catRefitOK marks attempted categories whose refit on the resampled
	// series converged and stayed finite (a failed refit falls back to
	// the original fit).
	catRefitOK []bool
	// factorAttempted/factorRefitOK are the same pair for the factor fit.
	factorAttempted, factorRefitOK bool
}

// bootstrap runs the residual-bootstrap stage on a finished prediction:
// resample the measurement noise around every selected fit, refit the same
// kernels on the perturbed series (fit.Refit — the kernel×prefix search ran
// once, on the real measurements), re-run Combine and the factor
// application, and summarize the replicate predictions as two-sided
// quantile bands (TimeLo/TimeHi) plus per-category fit-stability scores.
//
// Replicates run across the pipeline's worker pool; each replicate owns a
// deterministic RNG derived from Options.Seed and its index, so the bands
// are reproducible for any worker count. Cancelling ctx aborts the
// replicate fan-out mid-bootstrap and returns ctx.Err().
func (pl *Pipeline) bootstrap(ctx context.Context, series *counters.Series, ex *Extrapolation, p *Prediction) error {
	n := pl.opt.Bootstrap
	level := pl.opt.CILevel
	xs := series.Cores()
	targets := p.TargetCores

	// The fitted categories (in stable order) and their residuals over the
	// measured window. All-zero categories carry no noise and stay zero.
	var fitted []category
	var catFits []*fit.Fit
	var catRes [][]float64
	for _, cat := range ex.measured {
		f := ex.Fits[cat.name]
		if f == nil {
			continue
		}
		fitted = append(fitted, cat)
		catFits = append(catFits, f)
		catRes = append(catRes, residuals(f, xs, cat.ys))
	}
	factor, err := measuredFactor(series, pl.opt)
	if err != nil {
		return err
	}
	facRes := residuals(p.FactorFit, xs, factor)

	reps := make([]bootRep, n)
	if err := pl.runIndexed(ctx, n, func(r int) {
		reps[r] = pl.oneReplicate(rand.New(rand.NewSource(pl.opt.Seed+int64(r))),
			xs, targets, fitted, catFits, catRes, p.FactorFit, factor, facRes)
	}); err != nil {
		return err
	}

	// Quantile bands over the surviving replicates.
	var good []bootRep
	for _, rep := range reps {
		if rep.times != nil {
			good = append(good, rep)
		}
	}
	if len(good) == 0 {
		return fmt.Errorf("core: bootstrap for %s produced no realistic replicate out of %d", series.Workload, n)
	}
	alpha := (100 - level) / 200 // two-sided tail mass as a fraction
	p.TimeLo = make([]float64, len(targets))
	p.TimeHi = make([]float64, len(targets))
	col := make([]float64, len(good))
	for i := range targets {
		for r, rep := range good {
			col[r] = rep.times[i]
		}
		lo := stats.Quantile(col, alpha)
		hi := stats.Quantile(col, 1-alpha)
		// The band is an uncertainty statement about the point estimate;
		// it must always contain it.
		p.TimeLo[i] = math.Min(lo, p.Time[i])
		p.TimeHi[i] = math.Max(hi, p.Time[i])
	}
	p.CILevel = level
	p.Bootstraps = len(good)

	// Fit-stability scores: the fraction of replicates whose refit
	// converged, damped by the spread (coefficient of variation) of the
	// category's bootstrap predictions at the largest target. A category
	// whose refits always converge and agree scores near 1; one whose
	// refits diverge or scatter scores near 0.
	p.Stability = map[string]float64{}
	for ci, cat := range fitted {
		attempted, converged := 0.0, 0.0
		vals := make([]float64, 0, n)
		for _, rep := range reps {
			if !rep.catAttempted[ci] {
				continue
			}
			attempted++
			if rep.catRefitOK[ci] {
				converged++
			}
			if !math.IsNaN(rep.catLast[ci]) {
				vals = append(vals, rep.catLast[ci])
			}
		}
		// A category whose refit never ran (every replicate aborted
		// earlier) has unknown stability; report 0, not a clean 1.
		score := 0.0
		if attempted > 0 {
			score = (converged / attempted) / (1 + variation(vals))
		}
		p.Stability[cat.name] = score
	}
	attempted, converged := 0.0, 0.0
	for _, rep := range reps {
		if !rep.factorAttempted {
			continue
		}
		attempted++
		if rep.factorRefitOK {
			converged++
		}
	}
	last := make([]float64, 0, len(good))
	for _, rep := range good {
		last = append(last, rep.times[len(targets)-1])
	}
	p.FactorStability = 0
	if attempted > 0 {
		p.FactorStability = (converged / attempted) / (1 + variation(last))
	}
	return nil
}

// oneReplicate resamples every fitted series' residuals, refits, and
// re-runs the combine and factor stages, producing one bootstrap draw of
// the time predictions.
func (pl *Pipeline) oneReplicate(rng *rand.Rand, xs, targets []float64,
	fitted []category, catFits []*fit.Fit, catRes [][]float64,
	factorFit *fit.Fit, factor []float64, facRes []float64) bootRep {

	rep := bootRep{
		catLast:      make([]float64, len(fitted)),
		catAttempted: make([]bool, len(fitted)),
		catRefitOK:   make([]bool, len(fitted)),
	}
	for ci := range rep.catLast {
		rep.catLast[ci] = math.NaN()
	}
	totals := make([]float64, len(targets))
	for ci := range fitted {
		f := catFits[ci]
		rep.catAttempted[ci] = true
		nf, err := fit.Refit(f, xs, resample(rng, f, xs, catRes[ci]))
		rep.catRefitOK[ci] = err == nil
		if err != nil {
			nf = f // a diverged refit falls back to the selected fit
		}
		ok := true
		for i, x := range targets {
			v := nf.Eval(x) * pl.opt.DatasetScale
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
			if v < 0 {
				v = 0
			}
			totals[i] += v
			if i == len(targets)-1 {
				rep.catLast[ci] = v
			}
		}
		if !ok {
			// An unrealistic refit invalidates the whole replicate's
			// prediction but still counts against the category's stability.
			rep.catRefitOK[ci] = false
			return rep
		}
	}
	rep.factorAttempted = true
	nff, err := fit.Refit(factorFit, xs, resample(rng, factorFit, xs, facRes))
	rep.factorRefitOK = err == nil
	if err != nil {
		nff = factorFit
	}
	times := make([]float64, len(targets))
	for i, x := range targets {
		t := nff.Eval(x) * (totals[i] / x) * pl.opt.FreqRatio
		if !finiteNonNegative(t) {
			return rep
		}
		times[i] = t
	}
	rep.times = times
	return rep
}

// residuals returns the fit's measurement-noise estimates over the whole
// measured window.
func residuals(f *fit.Fit, xs, ys []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ys[i] - f.Eval(x)
	}
	return out
}

// resample draws a perturbed series: the fitted curve plus residuals
// resampled with replacement.
func resample(rng *rand.Rand, f *fit.Fit, xs []float64, res []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f.Eval(x) + res[rng.Intn(len(res))]
	}
	return ys
}

// variation is the coefficient of variation of xs (0 when degenerate).
func variation(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(stats.StdDev(xs) / m)
}

// finiteNonNegative reports whether t is a usable time prediction.
func finiteNonNegative(t float64) bool {
	return t >= 0 && !math.IsNaN(t) && !math.IsInf(t, 0)
}
