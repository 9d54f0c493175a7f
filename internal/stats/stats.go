// Package stats provides the small set of descriptive statistics ESTIMA
// needs: means, deviations, root-mean-square error, Pearson correlation and
// relative-error summaries. All functions are pure and allocate nothing
// beyond their return values.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLength is returned by functions that require two slices of equal,
// non-zero length.
var ErrLength = errors.New("stats: slices must have equal non-zero length")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns +Inf for an empty slice so that
// callers folding over possibly-empty data get a sensible identity.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It returns -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// RMSE returns the root mean square error between predictions and
// observations.
func RMSE(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) || len(pred) == 0 {
		return 0, ErrLength
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - obs[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}

// NRMSE returns the RMSE normalized by the mean magnitude of the
// observations, making errors comparable across stall categories whose
// absolute scales differ by orders of magnitude. If the observations are all
// zero it returns the plain RMSE.
func NRMSE(pred, obs []float64) (float64, error) {
	r, err := RMSE(pred, obs)
	if err != nil {
		return 0, err
	}
	scale := 0.0
	for _, o := range obs {
		scale += math.Abs(o)
	}
	scale /= float64(len(obs))
	if scale == 0 {
		return r, nil
	}
	return r / scale, nil
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// If either input has zero variance the correlation is undefined; this
// implementation returns 1 when both are constant (the curves trivially
// follow each other, matching how the paper treats flat stall curves) and 0
// when only one is constant.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, ErrLength
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	switch {
	case sxx == 0 && syy == 0:
		return 1, nil
	case sxx == 0 || syy == 0:
		return 0, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Floating point can push |r| marginally above 1.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// AbsPctErr returns |pred-actual| / |actual| * 100. If actual is zero it
// returns 0 when pred is also zero and +Inf otherwise.
func AbsPctErr(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-actual) / math.Abs(actual) * 100
}

// MaxAbsPctErr returns the maximum of AbsPctErr over paired slices.
func MaxAbsPctErr(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) || len(pred) == 0 {
		return 0, ErrLength
	}
	m := 0.0
	for i := range pred {
		if e := AbsPctErr(pred[i], actual[i]); e > m {
			m = e
		}
	}
	return m, nil
}

// MeanAbsPctErr returns the mean of AbsPctErr over paired slices (MAPE).
func MeanAbsPctErr(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) || len(pred) == 0 {
		return 0, ErrLength
	}
	sum := 0.0
	for i := range pred {
		sum += AbsPctErr(pred[i], actual[i])
	}
	return sum / float64(len(pred)), nil
}

// AllFinite reports whether every element of xs is finite (not NaN or ±Inf).
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Quantile returns the q-quantile of xs (q in [0, 1]) using linear
// interpolation between order statistics (the common "type 7" estimator).
// q is clamped into [0, 1]; an empty xs or a NaN q yields NaN. xs is not
// modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
