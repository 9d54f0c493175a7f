package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// ErrNoValidFit is returned when every kernel/prefix combination is rejected
// by the realism filters.
var ErrNoValidFit = errors.New("fit: no valid approximation found")

// Fit is one fitted extrapolation function: a kernel, its coefficients, and
// the bookkeeping of how it was selected.
type Fit struct {
	// Kernel is the function family.
	Kernel *Kernel
	// Params are the fitted coefficients (in normalized-y space).
	Params []float64
	// YScale is the normalization factor applied to the observations before
	// fitting; Eval multiplies the kernel value by YScale.
	YScale float64
	// PrefixLen is the number of leading measurements used for the fit
	// (the i of the paper's "repeated for i in 3..n" loop).
	PrefixLen int
	// CheckpointRMSE is the normalized RMSE at the checkpoint measurements
	// used for model selection.
	CheckpointRMSE float64
}

// Eval evaluates the fitted function at x.
func (f *Fit) Eval(x float64) float64 {
	return f.Kernel.Eval(f.Params, x) * f.YScale
}

// EvalSeries evaluates the fitted function at every x in xs.
func (f *Fit) EvalSeries(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f.Eval(x)
	}
	return out
}

// String identifies the fit for logs and reports.
func (f *Fit) String() string {
	return fmt.Sprintf("%s(prefix=%d, cpRMSE=%.4g)", f.Kernel.Name, f.PrefixLen, f.CheckpointRMSE)
}

// Options configures the approximation procedure of Figure 4.
type Options struct {
	// Checkpoints is c, the number of highest-core-count measurements held
	// out to score candidate functions. The paper uses 2 and 4. Default 2.
	Checkpoints int
	// MinPrefix is the smallest prefix length fitted. Default 3.
	MinPrefix int
	// MaxX is the largest core count the function must stay realistic up
	// to. Default: 4 × the largest measured x.
	MaxX float64
	// Kernels is the candidate library. Default: AllKernels.
	Kernels []*Kernel
	// NonNegative rejects fits that go negative in (0, MaxX]. Stall counts
	// and execution times are non-negative, so it defaults to true;
	// AllowNegative disables it.
	AllowNegative bool
	// MaxGrowth rejects fits whose magnitude anywhere in range exceeds
	// MaxGrowth × the largest observed magnitude. Default 1e4.
	MaxGrowth float64
	// MaxFitNRMSE rejects candidates whose normalized RMSE over the whole
	// fitting window (not just the checkpoints) exceeds this bound —
	// functions that nail the checkpoints by accident while ignoring the
	// measurements are not realistic extrapolations. Default 1.0.
	MaxFitNRMSE float64
	// LoBound/HiBound, when positive, bound the values a candidate may
	// produce in SelectByCorrelation's produced-time check.
	LoBound, HiBound float64
	// TailSlopeCap, when positive, rejects fits that grow beyond the
	// measurement window faster than TailSlopeCap times the steepest
	// per-core increment observed over the window's last third. Rationals
	// otherwise like to shoot up right past the data even when the
	// measured tail is flat or decelerating.
	TailSlopeCap float64
}

func (o Options) withDefaults(xs []float64) Options {
	if o.Checkpoints <= 0 {
		o.Checkpoints = 2
	}
	if o.MinPrefix <= 0 {
		o.MinPrefix = 3
	}
	if o.MaxX <= 0 && len(xs) > 0 {
		o.MaxX = 4 * xs[len(xs)-1]
	}
	if len(o.Kernels) == 0 {
		o.Kernels = AllKernels
	}
	if o.MaxGrowth <= 0 {
		o.MaxGrowth = 1e4
	}
	if o.MaxFitNRMSE <= 0 {
		o.MaxFitNRMSE = 1.0
	}
	return o
}

// Approximate runs the paper's approximation procedure on the measurements
// (xs must be strictly increasing core counts): designate the Checkpoints
// highest measurements as checkpoints, fit every kernel on every prefix
// i ∈ [MinPrefix, n] of the remaining points, discard unrealistic functions,
// and return the candidate with minimum RMSE at the checkpoints.
func Approximate(xs, ys []float64, opt Options) (*Fit, error) {
	cands, err := CandidateFits(xs, ys, opt)
	if err != nil {
		return nil, err
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.CheckpointRMSE < best.CheckpointRMSE {
			best = c
		}
	}
	return best, nil
}

// CandidateFits returns every kernel/prefix candidate that survives the
// realism filters, each scored with its checkpoint RMSE. The scaling-factor
// step of the pipeline uses the full candidate set to select by correlation
// instead of by RMSE.
func CandidateFits(xs, ys []float64, opt Options) ([]*Fit, error) {
	if len(xs) != len(ys) {
		return nil, ErrBadInput
	}
	m := len(xs)
	if m < 2 {
		return nil, ErrBadInput
	}
	if !sort.Float64sAreSorted(xs) {
		return nil, fmt.Errorf("fit: xs must be sorted ascending")
	}
	if !stats.AllFinite(xs) || !stats.AllFinite(ys) {
		return nil, fmt.Errorf("fit: non-finite measurement")
	}
	opt = opt.withDefaults(xs)

	// Partition into fitting prefix range and checkpoints. With very few
	// measurements (e.g. a 4-core desktop) the strict split would leave
	// nothing to fit on, so fall back to fitting on all points and scoring
	// on the trailing ones.
	c := opt.Checkpoints
	n := m - c
	var prefixes []int
	if n >= opt.MinPrefix {
		for i := opt.MinPrefix; i <= n; i++ {
			prefixes = append(prefixes, i)
		}
	} else {
		prefixes = []int{m}
		if c >= m {
			c = m - 1
		}
	}
	cpX, cpY := xs[m-c:], ys[m-c:]

	maxAbsY := 0.0
	for _, y := range ys {
		if a := math.Abs(y); a > maxAbsY {
			maxAbsY = a
		}
	}

	// The realism filters' grids and limits depend only on the window and
	// the options, so every candidate shares one set.
	grid := realismGrid(math.Min(1, xs[0]), opt.MaxX)
	var tailGrid, tailLimit []float64
	if opt.TailSlopeCap > 0 {
		tailGrid, tailLimit = tailBound(xs, ys, opt, maxAbsY)
	}

	var cands []*Fit
	for _, kern := range opt.Kernels {
		for _, plen := range prefixes {
			f := fitOne(kern, xs[:plen], ys[:plen])
			if f == nil {
				continue
			}
			f.PrefixLen = plen
			if !realistic(f, grid, opt, maxAbsY) {
				continue
			}
			if !tailGrowthOK(f, tailGrid, tailLimit) {
				continue
			}
			// The candidate must also describe the measurements it saw.
			fullFit, err := stats.NRMSE(f.EvalSeries(xs[:plen]), ys[:plen])
			if err != nil || math.IsNaN(fullFit) || fullFit > opt.MaxFitNRMSE {
				continue
			}
			pred := f.EvalSeries(cpX)
			rmse, err := stats.NRMSE(pred, cpY)
			if err != nil || math.IsNaN(rmse) || math.IsInf(rmse, 0) {
				continue
			}
			f.CheckpointRMSE = rmse
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return nil, ErrNoValidFit
	}
	return cands, nil
}

// fitOne fits a single kernel to the given window, normalizing y for
// conditioning. Returns nil if the kernel cannot be fitted on this window.
func fitOne(kern *Kernel, xs, ys []float64) *Fit {
	return fitOneSeeded(kern, xs, ys, nil)
}

// fitOneSeeded is fitOne with one extra Levenberg-Marquardt start appended
// after the kernel's own: coefficients of a previous fit of the same kernel
// on nearby data (normalized-y space). Refit passes the fit being
// resampled, so bootstrap replicates start the search at the optimum the
// real measurements selected. The seed runs last and wins only on strictly
// smaller chi², so fits where the standard starts already find the optimum
// are byte-unchanged. Linear kernels solve exactly and ignore the seed.
func fitOneSeeded(kern *Kernel, xs, ys, seed []float64) *Fit {
	if len(xs) < 2 {
		return nil
	}
	// Rational kernels need at least as many points as parameters to be
	// meaningfully determined; linear kernels are ridge-stabilized.
	if !kern.Linear && len(xs) < kern.NParams {
		return nil
	}
	yscale := 0.0
	for _, y := range ys {
		yscale += math.Abs(y)
	}
	yscale /= float64(len(ys))
	if yscale == 0 {
		yscale = 1
	}
	norm := make([]float64, len(ys))
	for i, y := range ys {
		norm[i] = y / yscale
	}
	if kern.RequiresPositive {
		for _, y := range norm {
			if y <= 0 {
				return nil
			}
		}
	}

	if kern.Linear {
		p, err := LinearLSQ(xs, norm, kern.Basis, kern.NParams)
		if err != nil {
			return nil
		}
		return &Fit{Kernel: kern, Params: p, YScale: yscale}
	}

	starts := kern.Starts(xs, norm)
	if len(seed) == kern.NParams && stats.AllFinite(seed) {
		starts = append(starts, seed)
	}
	if len(starts) == 0 {
		return nil
	}
	// One workspace serves every start; the winning parameters are copied
	// out of it, since the next start's solve overwrites them.
	var ws workspace
	var bestP []float64
	bestChi := math.Inf(1)
	eval := kern.window()
	for _, s := range starts {
		if len(s) != kern.NParams {
			continue
		}
		p, chi := ws.levenbergMarquardt(eval, xs, norm, s)
		if chi < bestChi {
			bestChi = chi
			bestP = append(bestP[:0], p...)
		}
	}
	if bestP == nil || math.IsInf(bestChi, 0) {
		return nil
	}
	return &Fit{Kernel: kern, Params: bestP, YScale: yscale}
}

// realistic applies the paper's "discard functions that are not realistic"
// filter on grid, the realism grid over (0, MaxX]: the candidate must be
// finite, must not have a pole in range, must not go (materially) negative
// when the quantity is a count or a time, and must not explode past
// MaxGrowth × the observed magnitude.
func realistic(f *Fit, grid []float64, opt Options, maxAbsY float64) bool {
	negTol := -0.02 * maxAbsY
	limit := opt.MaxGrowth * (maxAbsY + 1e-12)

	denSign := 0.0
	for _, x := range grid {
		if f.Kernel.Denominator != nil {
			d := f.Kernel.Denominator(f.Params, x)
			if d == 0 || math.IsNaN(d) {
				return false
			}
			s := math.Copysign(1, d)
			if denSign == 0 {
				denSign = s
			} else if s != denSign {
				return false // pole crossed inside the range
			}
		}
		v := f.Eval(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if !opt.AllowNegative && v < negTol {
			return false
		}
		if math.Abs(v) > limit {
			return false
		}
	}
	return true
}

// tailBound bounds a candidate's growth beyond the measured window by a
// linear continuation of the window tail's least-squares slope, scaled by
// TailSlopeCap (plus a slack of 15% of the observed magnitude), and returns
// the grid past the window with the limit at each of its points. The
// least-squares slope separates the trend from measurement noise — a flat
// noisy category licenses almost no growth, while an accelerating one
// licenses plenty. The whole measured window, not just a candidate's
// fitting prefix, anchors the bound. A window too short for a tail slope
// yields empty slices, which bound nothing.
func tailBound(xs, ys []float64, opt Options, maxAbsY float64) (grid, limit []float64) {
	m := len(xs)
	if m < 4 {
		return nil, nil
	}
	xLast, yLast := xs[m-1], ys[m-1]
	tailStart := m / 2
	if m-tailStart < 3 {
		tailStart = m - 3
	}
	lineBasis := func(x float64) []float64 { return []float64{1, x} }
	p, err := LinearLSQ(xs[tailStart:], ys[tailStart:], lineBasis, 2)
	if err != nil {
		return nil, nil
	}
	slope := p[1]
	if slope < 0 {
		slope = 0
	}
	slack := 0.15 * maxAbsY
	grid = realismGrid(xLast, opt.MaxX)
	limit = make([]float64, len(grid))
	for i, x := range grid {
		limit[i] = yLast + opt.TailSlopeCap*slope*(x-xLast) + slack
	}
	return grid, limit
}

// tailGrowthOK reports whether f stays within the tail bound at every
// point of its grid.
func tailGrowthOK(f *Fit, grid, limit []float64) bool {
	for i, x := range grid {
		if f.Eval(x) > limit[i] {
			return false
		}
	}
	return true
}

// realismGrid samples the validity range densely enough to catch poles and
// sign dips between integers.
func realismGrid(lo, hi float64) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	const steps = 256
	grid := make([]float64, 0, steps+1)
	for i := 0; i <= steps; i++ {
		grid = append(grid, lo+(hi-lo)*float64(i)/steps)
	}
	return grid
}

// SelectByCorrelation implements the scaling-factor selection of §3.1.3: it
// fits candidates to (xs, factor) and returns the candidate whose produced
// execution-time series — candidate(x) × reference(x) over targetXs — has
// the highest Pearson correlation with the reference series (the total
// stalled cycles per core). Ties break toward lower checkpoint RMSE.
func SelectByCorrelation(xs, factor []float64, targetXs, reference []float64, opt Options) (*Fit, error) {
	if len(targetXs) != len(reference) || len(targetXs) == 0 {
		return nil, ErrBadInput
	}
	// The factor itself may legitimately be a decreasing function; it is a
	// time-per-stall ratio, not a count, but it must stay positive.
	cands, err := CandidateFits(xs, factor, opt)
	if err != nil {
		return nil, err
	}
	// First pass honours the produced-value bounds; if they eliminate every
	// candidate, fall back to the unbounded selection so the tool still
	// produces an answer (matching the paper's always-predict behaviour).
	const corrTie = 0.02
	for _, bounded := range []bool{true, false} {
		type scored struct {
			f    *Fit
			corr float64
		}
		var valid []scored
		bestCorr := math.Inf(-1)
		for _, cand := range cands {
			times := make([]float64, len(targetXs))
			ok := true
			for i, x := range targetXs {
				t := cand.Eval(x) * reference[i]
				if math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 {
					ok = false
					break
				}
				if bounded {
					if opt.LoBound > 0 && t < opt.LoBound {
						ok = false
						break
					}
					if opt.HiBound > 0 && t > opt.HiBound {
						ok = false
						break
					}
				}
				times[i] = t
			}
			if !ok {
				continue
			}
			corr, err := stats.Pearson(times, reference)
			if err != nil {
				continue
			}
			valid = append(valid, scored{cand, corr})
			if corr > bestCorr {
				bestCorr = corr
			}
		}
		// Among near-maximal correlations, prefer the candidate that tracks
		// the measured factor best: correlation alone is blind to monotone
		// distortion of the factor curve.
		var best *Fit
		for _, s := range valid {
			if s.corr < bestCorr-corrTie {
				continue
			}
			if best == nil || s.f.CheckpointRMSE < best.CheckpointRMSE {
				best = s.f
			}
		}
		if best != nil {
			return best, nil
		}
	}
	return nil, ErrNoValidFit
}
