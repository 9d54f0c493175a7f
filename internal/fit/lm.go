package fit

import (
	"math"

	"repro/internal/stats"
)

// lmOptions tunes the Levenberg–Marquardt solver. The zero value is not
// usable; use defaultLMOptions.
type lmOptions struct {
	MaxIter   int
	InitDamp  float64
	TolGrad   float64
	TolStep   float64
	TolChiRel float64
}

func defaultLMOptions() lmOptions {
	return lmOptions{
		MaxIter:   200,
		InitDamp:  1e-3,
		TolGrad:   1e-12,
		TolStep:   1e-12,
		TolChiRel: 1e-12,
	}
}

// windowEval evaluates a model over a whole window: out[i] = f(p, xs[i]).
// The solver calls one per Jacobian column and one per residual vector.
type windowEval func(p, xs, out []float64)

// pointwise is the window evaluation of a scalar model: f at each x in
// index order.
func pointwise(f func(p []float64, x float64) float64) windowEval {
	return func(p, xs, out []float64) {
		for i, x := range xs {
			out[i] = f(p, x)
		}
	}
}

// workspace is the Levenberg–Marquardt solver's scratch memory, sized for
// m observations and n parameters and carved from one backing array. The
// Jacobian is column-major, so each forward-difference column is one
// window evaluation; JᵀJ and its damped copy are row-major, as solveLinear
// takes them. An accepted step swaps p with trial and r with tr instead of
// copying, so once sized the solver allocates nothing. A workspace belongs
// to one goroutine; every solve overwrites the buffers it reads before
// reading them, so reusing one cannot leak state between solves.
type workspace struct {
	buf      []float64 // backing array of every buffer below
	jac      []float64 // n×m forward-difference Jacobian, column j at jac[j*m:]
	jtj, a   []float64 // n×n JᵀJ and its damped copy
	jtr, b   []float64 // Jᵀr and the damped system's right-hand side
	delta    []float64 // the step solving the damped system
	p, trial []float64 // current and trial parameters
	r, tr    []float64 // residuals at p and at trial
}

// reset sizes the workspace for m observations and n parameters,
// reallocating its backing array only when it is too small.
func (ws *workspace) reset(m, n int) {
	need := m*n + 2*n*n + 5*n + 2*m
	if cap(ws.buf) < need {
		ws.buf = make([]float64, need)
	}
	buf := ws.buf[:need]
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	ws.jac, ws.jtj, ws.a = take(m*n), take(n*n), take(n*n)
	ws.jtr, ws.b, ws.delta = take(n), take(n), take(n)
	ws.p, ws.trial = take(n), take(n)
	ws.r, ws.tr = take(m), take(m)
}

// LevenbergMarquardt minimizes sum_i (f(p, xs[i]) - ys[i])^2 over p starting
// from start, returning the refined parameters and the final sum of squared
// residuals. The Jacobian is computed by forward differences. The
// implementation is the classic damped normal-equations variant: solve
// (JᵀJ + λ diag(JᵀJ)) δ = -Jᵀr, accept steps that reduce χ², shrinking λ on
// success and growing it on failure. The solve runs on a workspace of its
// own; callers solving many starts reuse one through
// workspace.levenbergMarquardt.
func LevenbergMarquardt(f func(p []float64, x float64) float64, xs, ys, start []float64) ([]float64, float64) {
	var ws workspace
	p, chi := ws.levenbergMarquardt(pointwise(f), xs, ys, start)
	return append([]float64(nil), p...), chi
}

// residuals fills r with eval(p, xs) - ys and returns χ², their sum of
// squares in index order. It reports false, with χ² = +Inf, when any model
// value is not finite.
func residuals(eval windowEval, xs, ys, p, r []float64) (float64, bool) {
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

// dot is the sum of a[i]·b[i] in index order.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// levenbergMarquardt is LevenbergMarquardt on ws, with the model evaluated
// a window at a time. The returned parameters alias the workspace and are
// valid until its next solve.
func (ws *workspace) levenbergMarquardt(eval windowEval, xs, ys, start []float64) ([]float64, float64) {
	opt := defaultLMOptions()
	m, n := len(xs), len(start)
	ws.reset(m, n)
	jac, jtj, a, jtr, b, delta := ws.jac, ws.jtj, ws.a, ws.jtr, ws.b, ws.delta
	p, trial, r, tr := ws.p, ws.trial, ws.r, ws.tr
	copy(p, start)

	chi, ok := residuals(eval, xs, ys, p, r)
	if !ok {
		return p, chi
	}
	lambda := opt.InitDamp

	for iter := 0; iter < opt.MaxIter; iter++ {
		// Forward-difference Jacobian, one column per parameter.
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
			// Retreat to a one-sided step in the other direction.
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

		// JᵀJ and Jᵀr, entry by entry: each is a dot product over the
		// observations in index order, the summation order its bits
		// depend on.
		for j := 0; j < n; j++ {
			cj := jac[j*m : j*m+m]
			jtr[j] = dot(cj, r)
			for k := j; k < n; k++ {
				v := dot(cj, jac[k*m:k*m+m])
				jtj[j*n+k], jtj[k*n+j] = v, v
			}
		}

		gradNorm := 0.0
		for j := 0; j < n; j++ {
			gradNorm += jtr[j] * jtr[j]
		}
		if math.Sqrt(gradNorm) < opt.TolGrad {
			break
		}

		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			// Damped system: (JᵀJ + λ diag(JᵀJ) + εI) δ = -Jᵀr.
			copy(a, jtj)
			for j := 0; j < n; j++ {
				d := jtj[j*n+j]
				if d == 0 {
					d = 1e-12
				}
				a[j*n+j] += lambda*d + 1e-15
				b[j] = -jtr[j]
			}
			if err := solveLinear(a, b, delta); err != nil {
				lambda *= 10
				continue
			}
			stepNorm := 0.0
			for j := 0; j < n; j++ {
				trial[j] = p[j] + delta[j]
				stepNorm += delta[j] * delta[j]
			}
			tchi, ok := residuals(eval, xs, ys, trial, tr)
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
