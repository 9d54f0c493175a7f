// Package core implements the ESTIMA prediction pipeline of the paper's §3:
//
//	(A) collect stalled-cycle and execution-time measurements at low core
//	    counts (package sim or a perf-based collector produces the Series);
//	(B) extrapolate every stalled-cycle category individually with the
//	    Table 1 function kernels, selecting per category the function with
//	    minimum RMSE at the checkpoint measurements;
//	(C) combine the extrapolations into total stalled cycles per core,
//	    fit the scaling factor that connects stalls to execution time —
//	    chosen to maximize the correlation of the produced time predictions
//	    with the stalls-per-core series — and emit execution-time
//	    predictions for the target core counts.
//
// The package also implements the paper's cross-machine frequency scaling
// (§4.3), weak-scaling dataset factors (§4.5), prediction-error evaluation
// (Table 4) and the diagnosis that ranks the extrapolated stall categories
// (§4.6); perf's code-site attribution is read from the measured samples.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/stats"
)

// ErrTooFewSamples is returned when the series has fewer than two samples.
var ErrTooFewSamples = errors.New("core: need at least two measurement samples")

// Options configures a prediction. Every zero value means the field's
// default; Resolved is the one place that turns each into it.
type Options struct {
	// Checkpoints is the c of the approximation procedure (2 or 4 in the
	// paper). 0 means fit.DefaultCheckpoints.
	Checkpoints int
	// UseSoftware includes software stall categories (aborted transaction
	// cycles, lock spinning, barrier waits) in the extrapolation. This is
	// the plugin path of §4.1/§5.3; hardware-only is the default exactly
	// as in the paper.
	UseSoftware bool
	// Kernels overrides the extrapolation function library (ablations).
	Kernels []*fit.Kernel
	// FreqRatio is measurement-machine frequency divided by target-machine
	// frequency; predicted times are multiplied by it (§4.3). 0 means 1.
	FreqRatio float64
	// DatasetScale is the weak-scaling dataset factor of §4.5: extrapolated
	// stall values are scaled by it before the time correlation. 0 means 1.
	DatasetScale float64
	// Workers bounds the worker pool the pipeline stages fan out over
	// (per-category fitting, bootstrap replicates). 0 means NumCPU.
	Workers int
	// Gate, when non-nil, is a shared counting semaphore (a buffered
	// channel) acquired around every unit of pool work — one category fit,
	// one bootstrap replicate — so many concurrent pipelines can share one
	// CPU budget instead of each opening a full-width pool. nil means
	// ungated; results are identical either way.
	Gate chan struct{}
	// Bootstrap, when positive, runs that many residual-bootstrap
	// resamples after the point prediction, filling Prediction.TimeLo,
	// TimeHi and the fit-stability scores. 0 disables bootstrapping.
	Bootstrap int
	// CILevel is the two-sided confidence level of the bootstrap bands in
	// percent. 0 means DefaultCILevel (90). Only meaningful with Bootstrap.
	CILevel float64
	// Seed seeds the bootstrap's deterministic resampling RNG. 0 means 1,
	// so identical inputs always produce identical bands.
	Seed int64
}

// Validate rejects option values that earlier versions silently "fixed".
// Zero values always mean "use the default" and are valid; anything else
// must be usable as given. NewPipeline validates once, and Fit,
// Extrapolate and Times (so Run and Finish too) report the error, so a bad
// option surfaces as an error instead of a silent substitution.
func (o Options) Validate() error {
	switch {
	case o.Checkpoints < 0:
		return fmt.Errorf("core: negative checkpoint count %d", o.Checkpoints)
	case o.Workers < 0:
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	case o.Bootstrap < 0:
		return fmt.Errorf("core: negative bootstrap count %d", o.Bootstrap)
	case o.CILevel != 0 && !(o.CILevel > 0 && o.CILevel < 100):
		return fmt.Errorf("core: confidence level %g%% outside (0, 100)", o.CILevel)
	case !(o.FreqRatio >= 0 && o.FreqRatio <= math.MaxFloat64):
		return fmt.Errorf("core: negative or non-finite frequency ratio %g", o.FreqRatio)
	case !(o.DatasetScale >= 0 && o.DatasetScale <= math.MaxFloat64):
		return fmt.Errorf("core: negative or non-finite data scale %g", o.DatasetScale)
	}
	return nil
}

// Resolved returns the options with every zero value replaced by its
// default: the options NewPipeline runs with and Fingerprint describes.
func (o Options) Resolved() Options {
	if o.Checkpoints == 0 {
		o.Checkpoints = fit.DefaultCheckpoints
	}
	if o.FreqRatio == 0 {
		o.FreqRatio = 1
	}
	if o.DatasetScale == 0 {
		o.DatasetScale = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.CILevel == 0 {
		o.CILevel = DefaultCILevel
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Fingerprint is the canonical form of every option that can change a
// prediction: the key a memo of finished predictions looks results up by.
// It describes the resolved options, so spelling a default and omitting it
// fingerprint alike. Workers and Gate are absent: they are throughput
// knobs, never result knobs (results are worker-count independent by
// construction). The bootstrap's level and seed count only when the
// bootstrap runs. Options carrying a custom kernel library have no
// canonical form: ok is false, and no memo may key on them.
func (o Options) Fingerprint() (fp string, ok bool) {
	if o.Kernels != nil {
		return "", false
	}
	o = o.Resolved()
	ci, seed := 0.0, int64(0)
	if o.Bootstrap > 0 {
		ci, seed = o.CILevel, o.Seed
	}
	return fmt.Sprintf("soft=%t,chk=%d,freq=%g,ds=%g,boot=%d,ci=%g,seed=%d",
		o.UseSoftware, o.Checkpoints, o.FreqRatio, o.DatasetScale,
		o.Bootstrap, ci, seed), true
}

// Prediction is the result of one ESTIMA run.
type Prediction struct {
	// Workload and MeasuredOn identify the input series.
	Workload   string
	MeasuredOn string
	// MeasuredCores are the core counts of the input measurements.
	MeasuredCores []float64
	// TargetCores are the core counts predicted for.
	TargetCores []float64
	// CategoryFits maps stall category (event code or software name) to
	// its selected extrapolation function.
	CategoryFits map[string]*fit.Fit
	// CategoryValues maps category to its extrapolated values over
	// TargetCores (clamped non-negative).
	CategoryValues map[string][]float64
	// StallsPerCore is the combined extrapolation: total stalled cycles
	// divided by core count, over TargetCores.
	StallsPerCore []float64
	// FactorFit is the scaling-factor function selected by correlation.
	FactorFit *fit.Fit
	// Time is the predicted execution time in seconds (on the target
	// machine when FreqRatio was set) over TargetCores.
	Time []float64
	// TimeLo and TimeHi bound the CILevel two-sided bootstrap confidence
	// band around Time (nil unless Options.Bootstrap was set). The band
	// always contains the point estimate.
	TimeLo, TimeHi []float64
	// CILevel is the band's confidence level in percent (0 without
	// bootstrapping).
	CILevel float64
	// Bootstraps is the number of bootstrap replicates that produced a
	// realistic prediction and entered the band.
	Bootstraps int
	// Stability maps each fitted category to a fit-stability score in
	// (0, 1]: the fraction of bootstrap refits that converged, damped by
	// the spread of the category's resampled predictions. Near 1 means
	// the selected function is insensitive to measurement noise.
	Stability map[string]float64
	// FactorStability is the same score for the scaling-factor fit.
	FactorStability float64
}

// Predict runs steps B and C on a measured series (plus the bootstrap
// stage when Options.Bootstrap is set). It is a thin wrapper over the
// staged Pipeline; callers needing individual stages use NewPipeline, and
// callers needing cancellation use PredictContext.
func Predict(series *counters.Series, targetCores []int, opt Options) (*Prediction, error) {
	return NewPipeline(opt).Run(context.Background(), series, targetCores)
}

// PredictContext is Predict with a context: cancelling ctx stops the
// pipeline's fitting and bootstrap worker pools promptly and returns
// ctx.Err().
func PredictContext(ctx context.Context, series *counters.Series, targetCores []int, opt Options) (*Prediction, error) {
	return NewPipeline(opt).Run(ctx, series, targetCores)
}

// bestRelaxing completes the Figure 4 approximation of (xs, ys) from its
// finished search s: the candidate with the lowest checkpoint RMSE, or,
// when the realism filters rejected every candidate, the best lastResort
// fit.
func bestRelaxing(s *fit.Search, xs, ys []float64, fopt fit.Options) (*fit.Fit, error) {
	if cands, err := s.Candidates(); err == nil {
		return fit.Best(cands), nil
	}
	return fit.Approximate(xs, ys, lastResort(fopt))
}

// lastResort relaxes fit options to a linear continuation with every
// realism filter off. Noisy small series occasionally defeat every Table 1
// kernel's realism checks, and the tool must still produce an answer, so
// both fitting stages (bestRelaxing and SelectFactor) fall back to it.
func lastResort(fopt fit.Options) fit.Options {
	fopt.Kernels = []*fit.Kernel{fit.Linear}
	fopt.MaxFitNRMSE = 1e9
	fopt.MaxGrowth = 1e9
	fopt.TailSlopeCap = 0
	fopt.AllowNegative = true
	return fopt
}

// RelativeBandWidth is the width of a bootstrap confidence band relative to
// its point estimate: (hi-lo)/time. It is the explore planner's acquisition
// signal — "how unsure is this prediction" as a unitless fraction that is
// comparable across cells whose absolute times differ by orders of
// magnitude. Degenerate inputs (no positive point estimate, or no band
// above the point) score 0: a cell with no band carries no refinement
// signal.
func RelativeBandWidth(time, lo, hi float64) float64 {
	if !(time > 0) || !(hi > lo) {
		return 0
	}
	return (hi - lo) / time
}

// TimeAt returns the predicted time at the given core count.
func (p *Prediction) TimeAt(cores int) (float64, error) {
	for i, c := range p.TargetCores {
		if int(c) == cores {
			return p.Time[i], nil
		}
	}
	return 0, fmt.Errorf("core: %d cores not among prediction targets", cores)
}

// allNearZero reports whether the category is effectively absent (e.g. STM
// categories of a lock-based workload).
func allNearZero(ys []float64) bool {
	maxAbs := 0.0
	for _, y := range ys {
		if a := math.Abs(y); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs < 1e-9
}

// ErrorBand is one evaluation band of Table 4 (e.g. "predictions between 13
// and 24 cores" is the Opteron's 2-CPU column).
type ErrorBand struct {
	// Label names the band in reports ("2 CPUs").
	Label string
	// MinCores (exclusive) and MaxCores (inclusive) bound the band.
	MinCores, MaxCores int
	// MaxPctError is the maximum |pred-actual|/actual over the band, in %.
	MaxPctError float64
}

// PctErrors is the one scoring rule for predicted times: it pairs each
// time with actual's sample at the same core count in (lo, hi] and returns
// the maximum and the mean absolute percentage error of those pairs, in
// cores order. ok is false when no core count pairs.
func PctErrors(cores, times []float64, actual *counters.Series, lo, hi int) (maxPct, meanPct float64, ok bool) {
	var pred, act []float64
	for i, c := range cores {
		cc := int(c)
		if cc <= lo || cc > hi {
			continue
		}
		for _, s := range actual.Samples {
			if s.Cores == cc {
				pred = append(pred, times[i])
				act = append(act, s.Seconds)
			}
		}
	}
	if len(pred) == 0 {
		return 0, 0, false
	}
	// Both only fail on unequal or empty slices, which pairing rules out.
	maxPct, _ = stats.MaxAbsPctErr(pred, act)
	meanPct, _ = stats.MeanAbsPctErr(pred, act)
	return maxPct, meanPct, true
}

// Errors evaluates the prediction against an actual measured series on the
// target machine, returning the maximum and mean absolute percentage error
// over all target core counts present in both.
func (p *Prediction) Errors(actual *counters.Series) (maxPct, meanPct float64, err error) {
	maxPct, meanPct, ok := PctErrors(p.TargetCores, p.Time, actual, 0, math.MaxInt)
	if !ok {
		return 0, 0, errors.New("core: no overlapping core counts to evaluate")
	}
	return maxPct, meanPct, nil
}

// BandErrors evaluates the prediction against the actual series within
// core-count bands, mirroring Table 4's per-CPU-count columns.
func (p *Prediction) BandErrors(actual *counters.Series, bands []ErrorBand) ([]ErrorBand, error) {
	out := append([]ErrorBand(nil), bands...)
	for bi, b := range out {
		m, _, ok := PctErrors(p.TargetCores, p.Time, actual, b.MinCores, b.MaxCores)
		if !ok {
			return nil, fmt.Errorf("core: band %q has no overlapping samples", b.Label)
		}
		out[bi].MaxPctError = m
	}
	return out, nil
}
