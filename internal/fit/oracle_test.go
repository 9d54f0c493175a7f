package fit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// The references below are the textbook forms the solver's fast paths must
// reproduce bit for bit: Gaussian elimination that swaps and updates whole
// rows, JᵀJ and Jᵀr one dot product per entry, and the Levenberg–Marquardt
// loop built on them with separate finiteness passes.

// refSolveLinear is solveLinear without its skipped work.
func refSolveLinear(m, b, x []float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
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

// refNormalEquations is normalEquations one dot product at a time.
func refNormalEquations(jac, r []float64, m, n int, jtj, jtr []float64) {
	for j := 0; j < n; j++ {
		cj := jac[j*m : j*m+m]
		jtr[j] = dot(cj, r)
		for k := j; k < n; k++ {
			v := dot(cj, jac[k*m:k*m+m])
			jtj[j*n+k], jtj[k*n+j] = v, v
		}
	}
}

// refResiduals is residuals with the finiteness check as its own pass.
func refResiduals(eval windowEval, xs, ys, p, r []float64) (float64, bool) {
	eval(p, xs, r)
	if !stats.AllFinite(r) {
		return math.Inf(1), false
	}
	chi := 0.0
	for i, v := range r {
		r[i] = v - ys[i]
		chi += r[i] * r[i]
	}
	return chi, true
}

// refLevenbergMarquardt is workspace.levenbergMarquardt on the references,
// with fresh buffers.
func refLevenbergMarquardt(eval windowEval, xs, ys, start []float64) ([]float64, float64) {
	opt := defaultLMOptions()
	m, n := len(xs), len(start)
	jac := make([]float64, m*n)
	jtj, a := make([]float64, n*n), make([]float64, n*n)
	jtr, b, delta := make([]float64, n), make([]float64, n), make([]float64, n)
	p, trial := append([]float64(nil), start...), make([]float64, n)
	r, tr := make([]float64, m), make([]float64, m)

	chi, ok := refResiduals(eval, xs, ys, p, r)
	if !ok {
		return p, chi
	}
	lambda := opt.InitDamp
	for iter := 0; iter < opt.MaxIter; iter++ {
		for j := 0; j < n; j++ {
			col := jac[j*m : j*m+m]
			h := 1e-7 * (math.Abs(p[j]) + 1e-7)
			pj := p[j]
			p[j] = pj + h
			eval(p, xs, col)
			p[j] = pj
			if stats.AllFinite(col) {
				for i, v := range col {
					col[i] = (v - ys[i] - r[i]) / h
				}
				continue
			}
			p[j] = pj - h
			eval(p, xs, col)
			p[j] = pj
			if !stats.AllFinite(col) {
				return p, chi
			}
			for i, v := range col {
				col[i] = (r[i] - (v - ys[i])) / h
			}
		}
		refNormalEquations(jac, r, m, n, jtj, jtr)

		gradNorm := 0.0
		for j := 0; j < n; j++ {
			gradNorm += jtr[j] * jtr[j]
		}
		if math.Sqrt(gradNorm) < opt.TolGrad {
			break
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			copy(a, jtj)
			for j := 0; j < n; j++ {
				d := jtj[j*n+j]
				if d == 0 {
					d = 1e-12
				}
				a[j*n+j] += lambda*d + 1e-15
				b[j] = -jtr[j]
			}
			if err := refSolveLinear(a, b, delta); err != nil {
				lambda *= 10
				continue
			}
			stepNorm := 0.0
			for j := 0; j < n; j++ {
				trial[j] = p[j] + delta[j]
				stepNorm += delta[j] * delta[j]
			}
			tchi, ok := refResiduals(eval, xs, ys, trial, tr)
			if ok && tchi < chi {
				relDrop := (chi - tchi) / (chi + 1e-300)
				p, trial = trial, p
				r, tr = tr, r
				chi = tchi
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				if math.Sqrt(stepNorm) < opt.TolStep || relDrop < opt.TolChiRel {
					return p, chi
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				return p, chi
			}
		}
		if !improved {
			break
		}
	}
	return p, chi
}

// sameBits reports whether a and b hold the same float64 bits, index by
// index.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// oracleSystems returns n×n systems (m, b) of every kind the solver must
// agree with the reference on: random well-conditioned, Hilbert-like
// ill-conditioned, singular by a zero column, and poisoned by NaN or ±Inf.
func oracleSystems(rng *rand.Rand, n int) map[string][2][]float64 {
	random := func() []float64 {
		v := make([]float64, n*n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		return v
	}
	rhs := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	hilbert := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hilbert[i*n+j] = 1 / float64(i+j+1)
		}
	}
	// Damped normal equations, as the solver sees them: JᵀJ + λ diag + ε.
	jac := make([]float64, n*8)
	for i := range jac {
		jac[i] = rng.NormFloat64()
	}
	normal := make([]float64, n*n)
	refNormalEquations(jac, make([]float64, 8), 8, n, normal, make([]float64, n))
	for j := 0; j < n; j++ {
		normal[j*n+j] += 1e-3*normal[j*n+j] + 1e-15
	}
	zeroCol := random()
	col := rng.Intn(n)
	for i := 0; i < n; i++ {
		zeroCol[i*n+col] = 0
	}
	out := map[string][2][]float64{
		"random":  {random(), rhs()},
		"hilbert": {hilbert, rhs()},
		"normal":  {normal, rhs()},
		"zeroCol": {zeroCol, rhs()},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := random()
		m[rng.Intn(n*n)] = bad
		out[fmt.Sprintf("m%v", bad)] = [2][]float64{m, rhs()}
		b := rhs()
		b[rng.Intn(n)] = bad
		out[fmt.Sprintf("b%v", bad)] = [2][]float64{random(), b}
	}
	return out
}

// TestSolveLinearMatchesReference: the solver returns the reference's
// solution bits and error on every kind of system, for every size the
// kernels use and beyond.
func TestSolveLinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	errs := map[bool]int{}
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 40; trial++ {
			for kind, sys := range oracleSystems(rng, n) {
				m1, b1 := append([]float64(nil), sys[0]...), append([]float64(nil), sys[1]...)
				m2, b2 := append([]float64(nil), sys[0]...), append([]float64(nil), sys[1]...)
				x1, x2 := make([]float64, n), make([]float64, n)
				err1, err2 := solveLinear(m1, b1, x1), refSolveLinear(m2, b2, x2)
				if err1 != err2 {
					t.Fatalf("n=%d %s: error %v, reference %v", n, kind, err1, err2)
				}
				errs[err1 != nil]++
				if !sameBits(x1, x2) || !sameBits(b1, b2) {
					t.Fatalf("n=%d %s: x %v b %v, reference x %v b %v", n, kind, x1, b1, x2, b2)
				}
			}
		}
	}
	if errs[true] == 0 || errs[false] == 0 {
		t.Errorf("solved %d and rejected %d systems; the cases must cover both", errs[false], errs[true])
	}
}

// TestNormalEquationsMatchesReference: every JᵀJ and Jᵀr entry carries the
// reference's bits, for every parameter count (odd and even rows, none a
// multiple of the interleave width) and window length, overflow and NaN
// included.
func TestNormalEquationsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		for m := 1; m <= 10; m++ {
			for trial := 0; trial < 30; trial++ {
				jac, r := make([]float64, n*m), make([]float64, m)
				for i := range jac {
					jac[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
				for i := range r {
					r[i] = rng.NormFloat64()
				}
				switch trial % 10 {
				case 1:
					jac[rng.Intn(len(jac))] = 1e200 // overflows a product to ±Inf
				case 2:
					jac[rng.Intn(len(jac))] = math.NaN()
				case 3:
					r[rng.Intn(m)] = math.Inf(-1)
				}
				jtj1, jtr1 := make([]float64, n*n), make([]float64, n)
				jtj2, jtr2 := make([]float64, n*n), make([]float64, n)
				normalEquations(jac, r, m, n, jtj1, jtr1)
				refNormalEquations(jac, r, m, n, jtj2, jtr2)
				if !sameBits(jtj1, jtj2) || !sameBits(jtr1, jtr2) {
					t.Fatalf("n=%d m=%d trial %d: JᵀJ %v Jᵀr %v, reference %v %v", n, m, trial, jtj1, jtr1, jtj2, jtr2)
				}
			}
		}
	}
}

// TestLevenbergMarquardtMatchesReference: from random starts, every kernel
// LM fits converges to the reference loop's parameter bits and χ², on a
// replay-like window and on its prefixes, so a rewrite of the loop or its
// solver that moves one rounding fails here before it reaches the goldens.
func TestLevenbergMarquardtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := benchWindow()
	for _, k := range []*Kernel{Rat22, Rat23, Rat33, ExpRat} {
		t.Run(k.Name, func(t *testing.T) {
			eval := k.window()
			var ws workspace
			for trial := 0; trial < 60; trial++ {
				plen := k.NParams + rng.Intn(len(xs)-k.NParams+1)
				start := make([]float64, k.NParams)
				if trial < 4 {
					copy(start, k.Starts(xs[:plen], ys[:plen])[trial%3])
				} else {
					for j := range start {
						start[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-3))
					}
				}
				p, chi := ws.levenbergMarquardt(eval, xs[:plen], ys[:plen], start)
				rp, rchi := refLevenbergMarquardt(eval, xs[:plen], ys[:plen], start)
				if math.Float64bits(chi) != math.Float64bits(rchi) || !sameBits(p, rp) {
					t.Fatalf("start %v on %d points: p %v χ² %v, reference p %v χ² %v", start, plen, p, chi, rp, rchi)
				}
			}
		})
	}
}
