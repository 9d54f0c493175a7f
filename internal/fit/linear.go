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
//
// Elimination step col reads only columns col and right of it, and back
// substitution reads row r only from its diagonal on, so the solver skips
// what nothing reads again: it swaps rows from the pivot column on, and it
// leaves the eliminated entries below the diagonal as they were. Every
// value it does read is computed as in textbook elimination, bit for bit.
func solveLinear(m, b, x []float64) error {
	n := len(b)
	m, x = m[:n*n], x[:n]
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
		// The pivot row from the diagonal on.
		pr := m[col*n+col : col*n+n]
		if pivot != col {
			other := m[pivot*n+col : pivot*n+n]
			other = other[:len(pr)]
			for c, v := range pr {
				pr[c], other[c] = other[c], v
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / pr[0]
		bc := b[col]
		tail := pr[1:]
		for r := col + 1; r < n; r++ {
			row := m[r*n+col : r*n+n]
			f := row[0] * inv
			if f == 0 {
				continue
			}
			row = row[1:]
			row = row[:len(tail)]
			for c, v := range tail {
				row[c] -= f * v
			}
			b[r] -= f * bc
		}
	}
	for r := n - 1; r >= 0; r-- {
		right := m[r*n+r+1 : r*n+n]
		xr := x[r+1:]
		xr = xr[:len(right)]
		sum := b[r]
		for c, v := range right {
			sum -= v * xr[c]
		}
		x[r] = sum / m[r*n+r]
		if math.IsNaN(x[r]) || math.IsInf(x[r], 0) {
			return ErrSingular
		}
	}
	return nil
}
