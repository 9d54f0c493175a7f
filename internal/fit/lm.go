package fit

import "math"

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
// value is not finite; r then holds garbage, and every caller discards it.
func residuals(eval windowEval, xs, ys, p, r []float64) (float64, bool) {
	eval(p, xs, r)
	ys = ys[:len(r)]
	chi := 0.0
	for i, v := range r {
		if !finite(v) {
			return math.Inf(1), false
		}
		r[i] = v - ys[i]
		chi += r[i] * r[i]
	}
	return chi, true
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// normalEquations fills jtj (n×n, row-major) with JᵀJ and jtr with Jᵀr for
// the column-major Jacobian jac of n columns of m observations and the
// residuals r. Each entry is a dot product over the observations, summed
// from 0 in index order: the order its bits depend on. Row j takes Jᵀr's
// entry j and JᵀJ's entries j..n-1, the products of column j with r and
// with columns j..n-1; one pass over the observations accumulates up to
// four of them, each in its own sum.
func normalEquations(jac, r []float64, m, n int, jtj, jtr []float64) {
	col := func(k int) []float64 { return jac[k*m : k*m+m] }
	set := func(j, k int, v float64) { jtj[j*n+k], jtj[k*n+j] = v, v }
	for j := 0; j < n; j++ {
		cj := col(j)
		k := j
		if n-k >= 3 {
			var a, b, c float64
			jtr[j], a, b, c = dot4(cj, r, col(k), col(k+1), col(k+2))
			set(j, k, a)
			set(j, k+1, b)
			set(j, k+2, c)
			k += 3
		} else {
			var a float64
			jtr[j], a = dot2(cj, r, col(k))
			set(j, k, a)
			k++
		}
		for ; k+4 <= n; k += 4 {
			a, b, c, d := dot4(cj, col(k), col(k+1), col(k+2), col(k+3))
			set(j, k, a)
			set(j, k+1, b)
			set(j, k+2, c)
			set(j, k+3, d)
		}
		for ; k+2 <= n; k += 2 {
			a, b := dot2(cj, col(k), col(k+1))
			set(j, k, a)
			set(j, k+1, b)
		}
		if k < n {
			set(j, k, dot(cj, col(k)))
		}
	}
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

// dot2 is dot(a, b0) and dot(a, b1) in one pass.
func dot2(a, b0, b1 []float64) (s0, s1 float64) {
	b0, b1 = b0[:len(a)], b1[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
	}
	return s0, s1
}

// dot4 is dot(a, b0) through dot(a, b3) in one pass.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

// forwardColumn turns col, the model evaluated at p with one parameter
// stepped up by h, into that parameter's forward-difference derivative
// (col[i] - ys[i] - r[i]) / h. It reports false at the first value that is
// not finite, leaving col part converted.
func forwardColumn(col, ys, r []float64, h float64) bool {
	ys, r = ys[:len(col)], r[:len(col)]
	for i, v := range col {
		if !finite(v) {
			return false
		}
		col[i] = (v - ys[i] - r[i]) / h
	}
	return true
}

// backwardColumn is forwardColumn for a step down by h: the derivative is
// (r[i] - (col[i] - ys[i])) / h.
func backwardColumn(col, ys, r []float64, h float64) bool {
	ys, r = ys[:len(col)], r[:len(col)]
	for i, v := range col {
		if !finite(v) {
			return false
		}
		col[i] = (r[i] - (v - ys[i])) / h
	}
	return true
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
			if forwardColumn(col, ys, r, h) {
				continue
			}
			// Retreat to a one-sided step in the other direction; the
			// evaluation overwrites whatever the forward step left.
			p[j] = pj - h
			eval(p, xs, col)
			p[j] = pj
			if !backwardColumn(col, ys, r, h) {
				return p, chi
			}
		}

		normalEquations(jac, r, m, n, jtj, jtr)

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
