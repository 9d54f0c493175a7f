// Package fit implements the function-approximation machinery of ESTIMA
// (paper §3.1.2, Table 1 and Figure 4): a library of analytic function
// kernels, linear least squares and Levenberg–Marquardt fitting, and the
// checkpoint-based model-selection procedure that picks one extrapolation
// function per stalled-cycle category.
package fit

import "math"

// Kernel describes one extrapolation function family from Table 1 of the
// paper. A kernel is evaluated as Eval(params, x) where x is the core count.
type Kernel struct {
	// Name is the paper's name for the kernel (e.g. "Rat22").
	Name string
	// NParams is the number of free coefficients.
	NParams int
	// Linear reports whether the kernel is linear in its parameters, in
	// which case Basis gives the design-matrix row and the kernel is fitted
	// by linear least squares instead of Levenberg–Marquardt.
	Linear bool
	// Eval evaluates the kernel at x with the given parameters.
	Eval func(p []float64, x float64) float64
	// Basis returns the basis-function values at x for linear kernels.
	Basis func(x float64) []float64
	// Denominator returns the denominator value at x for rational kernels,
	// used to reject fits with poles inside the extrapolation range. It is
	// nil for kernels without a denominator.
	Denominator func(p []float64, x float64) float64
	// Starts returns deterministic initial parameter guesses for nonlinear
	// fitting, derived from the data. It is nil for linear kernels.
	Starts func(xs, ys []float64) [][]float64
	// RequiresPositive reports whether the kernel needs strictly positive
	// observations (ExpRat fits the log of the data to seed its start).
	RequiresPositive bool

	// evalWindow is Eval over a whole window, out[i] = Eval(p, xs[i]), bit
	// for bit: Levenberg–Marquardt evaluates the model a window at a time.
	// It is nil for kernels fitted by linear least squares.
	evalWindow windowEval
}

// window returns k's whole-window evaluation, falling back to Eval point
// by point for a kernel without one.
func (k *Kernel) window() windowEval {
	if k.evalWindow != nil {
		return k.evalWindow
	}
	return pointwise(k.Eval)
}

// Rat22 is (a0 + a1*n + a2*n^2) / (1 + b1*n + b2*n^2).
var Rat22 = &Kernel{
	Name:    "Rat22",
	NParams: 5,
	Eval: func(p []float64, x float64) float64 {
		num := p[0] + p[1]*x + p[2]*x*x
		den := 1 + p[3]*x + p[4]*x*x
		return num / den
	},
	Denominator: func(p []float64, x float64) float64 {
		return 1 + p[3]*x + p[4]*x*x
	},
	Starts: ratStarts(3, 2),
	evalWindow: func(p, xs, out []float64) {
		p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
		out = out[:len(xs)]
		for i, x := range xs {
			num := p0 + p1*x + p2*x*x
			den := 1 + p3*x + p4*x*x
			out[i] = num / den
		}
	},
}

// Rat23 is (a0 + a1*n + a2*n^2) / (1 + b1*n + b2*n^2 + b3*n^3).
var Rat23 = &Kernel{
	Name:    "Rat23",
	NParams: 6,
	Eval: func(p []float64, x float64) float64 {
		num := p[0] + p[1]*x + p[2]*x*x
		den := 1 + p[3]*x + p[4]*x*x + p[5]*x*x*x
		return num / den
	},
	Denominator: func(p []float64, x float64) float64 {
		return 1 + p[3]*x + p[4]*x*x + p[5]*x*x*x
	},
	Starts: ratStarts(3, 3),
	evalWindow: func(p, xs, out []float64) {
		p0, p1, p2, p3, p4, p5 := p[0], p[1], p[2], p[3], p[4], p[5]
		out = out[:len(xs)]
		for i, x := range xs {
			num := p0 + p1*x + p2*x*x
			den := 1 + p3*x + p4*x*x + p5*x*x*x
			out[i] = num / den
		}
	},
}

// Rat33 is (a0 + a1*n + a2*n^2 + a3*n^3) / (1 + b1*n + b2*n^2 + b3*n^3).
var Rat33 = &Kernel{
	Name:    "Rat33",
	NParams: 7,
	Eval: func(p []float64, x float64) float64 {
		num := p[0] + p[1]*x + p[2]*x*x + p[3]*x*x*x
		den := 1 + p[4]*x + p[5]*x*x + p[6]*x*x*x
		return num / den
	},
	Denominator: func(p []float64, x float64) float64 {
		return 1 + p[4]*x + p[5]*x*x + p[6]*x*x*x
	},
	Starts: ratStarts(4, 3),
	evalWindow: func(p, xs, out []float64) {
		p0, p1, p2, p3, p4, p5, p6 := p[0], p[1], p[2], p[3], p[4], p[5], p[6]
		out = out[:len(xs)]
		for i, x := range xs {
			num := p0 + p1*x + p2*x*x + p3*x*x*x
			den := 1 + p4*x + p5*x*x + p6*x*x*x
			out[i] = num / den
		}
	},
}

// CubicLn is a + b*ln(n) + c*ln(n)^2 + d*ln(n)^3, linear in its parameters.
var CubicLn = &Kernel{
	Name:    "CubicLn",
	NParams: 4,
	Linear:  true,
	Eval: func(p []float64, x float64) float64 {
		l := math.Log(x)
		return p[0] + p[1]*l + p[2]*l*l + p[3]*l*l*l
	},
	Basis: func(x float64) []float64 {
		l := math.Log(x)
		return []float64{1, l, l * l, l * l * l}
	},
}

// ExpRat is exp((a + b*n) / (c + d*n)).
var ExpRat = &Kernel{
	Name:    "ExpRat",
	NParams: 4,
	Eval: func(p []float64, x float64) float64 {
		return math.Exp((p[0] + p[1]*x) / (p[2] + p[3]*x))
	},
	Denominator: func(p []float64, x float64) float64 {
		return p[2] + p[3]*x
	},
	Starts:           expRatStarts,
	RequiresPositive: true,
	evalWindow: func(p, xs, out []float64) {
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		out = out[:len(xs)]
		for i, x := range xs {
			out[i] = math.Exp((p0 + p1*x) / (p2 + p3*x))
		}
	},
}

// Poly25 is a + b*x + c*x^2 + d*x^2.5, linear in its parameters.
var Poly25 = &Kernel{
	Name:    "Poly25",
	NParams: 4,
	Linear:  true,
	Eval: func(p []float64, x float64) float64 {
		return p[0] + p[1]*x + p[2]*x*x + p[3]*math.Pow(x, 2.5)
	},
	Basis: func(x float64) []float64 {
		return []float64{1, x, x * x, math.Pow(x, 2.5)}
	},
}

// Linear is a plain a + b*x kernel. It is not part of the paper's Table 1
// library; the pipeline uses it as a last-resort fallback when every
// Table 1 kernel is rejected by the realism filters, because a linear
// continuation cannot blow up.
var Linear = &Kernel{
	Name:    "Linear",
	NParams: 2,
	Linear:  true,
	Eval: func(p []float64, x float64) float64 {
		return p[0] + p[1]*x
	},
	Basis: func(x float64) []float64 {
		return []float64{1, x}
	},
}

// AllKernels is the full Table 1 library in the paper's order.
var AllKernels = []*Kernel{Rat22, Rat23, Rat33, CubicLn, ExpRat, Poly25}

// ratStarts builds a Starts function for a rational kernel with nNum
// numerator coefficients and nDen denominator coefficients (excluding the
// constant 1). The primary start seeds the numerator with a polynomial
// least-squares fit of the data and zeroes the denominator, so the first LM
// iteration already matches the data about as well as a polynomial can;
// secondary starts perturb the denominator to escape the polynomial basin.
func ratStarts(nNum, nDen int) func(xs, ys []float64) [][]float64 {
	return func(xs, ys []float64) [][]float64 {
		deg := nNum - 1
		poly := polyFitCoeffs(xs, ys, deg)
		base := make([]float64, nNum+nDen)
		copy(base, poly)

		perturbed := make([]float64, nNum+nDen)
		copy(perturbed, poly)
		perturbed[nNum] = 0.01 // small b1

		flat := make([]float64, nNum+nDen)
		flat[0] = meanOf(ys)

		growing := make([]float64, nNum+nDen)
		growing[0] = firstOr(ys, 1)
		if len(xs) > 1 && xs[len(xs)-1] != xs[0] {
			growing[1] = (ys[len(ys)-1] - ys[0]) / (xs[len(xs)-1] - xs[0])
		}
		growing[nNum] = 0.05

		return [][]float64{base, perturbed, flat, growing}
	}
}

// expRatStarts seeds ExpRat from a linear fit of log(y): with c=1, d=0 the
// kernel reduces to exp(a + b*n), so the log-linear coefficients are an
// exact start for that sub-family.
func expRatStarts(xs, ys []float64) [][]float64 {
	logy := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return nil // caller skips the kernel
		}
		logy[i] = math.Log(y)
	}
	lin := polyFitCoeffs(xs, logy, 1)
	a, b := lin[0], 0.0
	if len(lin) > 1 {
		b = lin[1]
	}
	return [][]float64{
		{a, b, 1, 0},
		{a, b, 1, 0.05},
		{a, 0, 1, 0.01},
	}
}

func meanOf(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	s := 0.0
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}

func firstOr(ys []float64, def float64) float64 {
	if len(ys) == 0 {
		return def
	}
	return ys[0]
}

// polyFitCoeffs fits a polynomial of the given degree by linear least
// squares and returns its coefficients (constant term first). If the system
// is degenerate it falls back to a constant fit at the mean.
func polyFitCoeffs(xs, ys []float64, degree int) []float64 {
	if degree+1 > len(xs) {
		degree = len(xs) - 1
	}
	if degree < 0 {
		return []float64{0}
	}
	basis := func(x float64) []float64 {
		row := make([]float64, degree+1)
		v := 1.0
		for j := 0; j <= degree; j++ {
			row[j] = v
			v *= x
		}
		return row
	}
	p, err := LinearLSQ(xs, ys, basis, degree+1)
	if err != nil {
		return []float64{meanOf(ys)}
	}
	return p
}
