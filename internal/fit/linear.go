package fit

import (
	"errors"
	"math"
)

// ErrSingular is returned when a least-squares system is too ill-conditioned
// to solve reliably.
var ErrSingular = errors.New("fit: singular or ill-conditioned system")

// ErrBadInput is returned for empty or mismatched inputs.
var ErrBadInput = errors.New("fit: bad input lengths")

// LinearLSQ solves min ||A p - y||^2 where row i of A is basis(xs[i]) and
// the system has nParams unknowns. It forms the normal equations with a tiny
// Tikhonov ridge for numerical stability and solves them by Gaussian
// elimination with partial pivoting. The ridge magnitude is proportional to
// the trace of AᵀA, so well-posed systems are essentially unaffected.
func LinearLSQ(xs, ys []float64, basis func(float64) []float64, nParams int) ([]float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 || nParams <= 0 {
		return nil, ErrBadInput
	}
	// Normal equations: (AᵀA) p = Aᵀ y, AᵀA flat and row-major.
	ata := make([]float64, nParams*nParams)
	aty := make([]float64, nParams)
	for i := range xs {
		row := basis(xs[i])
		if len(row) != nParams {
			return nil, ErrBadInput
		}
		for j := 0; j < nParams; j++ {
			aty[j] += row[j] * ys[i]
			for k := 0; k < nParams; k++ {
				ata[j*nParams+k] += row[j] * row[k]
			}
		}
	}
	trace := 0.0
	for j := 0; j < nParams; j++ {
		trace += ata[j*nParams+j]
	}
	ridge := 1e-12 * (trace + 1)
	for j := 0; j < nParams; j++ {
		ata[j*nParams+j] += ridge
	}
	p := make([]float64, nParams)
	if err := solveLinear(ata, aty, p); err != nil {
		return nil, err
	}
	return p, nil
}

// solveLinear solves the square system m x = b by Gaussian elimination with
// partial pivoting, writing the solution into x. m is n×n, flat and
// row-major, where n = len(b) = len(x); m and b are clobbered. It is the one
// solver behind both LinearLSQ and LevenbergMarquardt.
func solveLinear(m, b, x []float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot: largest absolute value in this column at or below the
		// diagonal.
		pivot := col
		maxAbs := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(m[r*n+col]); a > maxAbs {
				maxAbs = a
				pivot = r
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		pr := m[col*n : col*n+n]
		if pivot != col {
			other := m[pivot*n : pivot*n+n]
			for c := range pr {
				pr[c], other[c] = other[c], pr[c]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / pr[col]
		for r := col + 1; r < n; r++ {
			row := m[r*n : r*n+n]
			f := row[col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				row[c] -= f * pr[c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		row := m[r*n : r*n+n]
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= row[c] * x[c]
		}
		x[r] = sum / row[r]
		if math.IsNaN(x[r]) || math.IsInf(x[r], 0) {
			return ErrSingular
		}
	}
	return nil
}
