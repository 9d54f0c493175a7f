package fit

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestLMRecoversExponential(t *testing.T) {
	// y = exp(0.5 + 0.1x), an exact member of the ExpRat family (c=1, d=0).
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(0.5 + 0.1*x)
	}
	start := []float64{0, 0, 1, 0}
	p, chi := LevenbergMarquardt(ExpRat.Eval, xs, ys, start)
	if chi > 1e-8 {
		t.Fatalf("chi = %v, want near zero (params %v)", chi, p)
	}
	for i, x := range xs {
		got := ExpRat.Eval(p, x)
		if math.Abs(got-ys[i]) > 1e-4 {
			t.Errorf("at x=%v got %v want %v", x, got, ys[i])
		}
	}
}

func TestLMRecoversRational(t *testing.T) {
	// y = (1 + 2x) / (1 + 0.1x), expressed in Rat22 with a2=b2=0.
	truth := []float64{1, 2, 0, 0.1, 0}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = Rat22.Eval(truth, x)
	}
	starts := Rat22.Starts(xs, ys)
	best := math.Inf(1)
	var bestP []float64
	for _, s := range starts {
		p, chi := LevenbergMarquardt(Rat22.Eval, xs, ys, s)
		if chi < best {
			best, bestP = chi, p
		}
	}
	if best > 1e-6 {
		t.Fatalf("chi = %v, want near zero", best)
	}
	// The fitted function must reproduce the data (params may differ since
	// rationals are not uniquely parameterized).
	for i, x := range xs {
		got := Rat22.Eval(bestP, x)
		if math.Abs(got-ys[i]) > 1e-3*(1+math.Abs(ys[i])) {
			t.Errorf("at x=%v got %v want %v", x, got, ys[i])
		}
	}
}

func TestLMImprovesOnStart(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1.2, 2.1, 2.9, 4.2, 4.8}
	f := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	start := []float64{10, -3} // deliberately bad
	chiAt := func(p []float64) float64 {
		s := 0.0
		for i, x := range xs {
			d := f(p, x) - ys[i]
			s += d * d
		}
		return s
	}
	p, chi := LevenbergMarquardt(f, xs, ys, start)
	if chi >= chiAt(start) {
		t.Errorf("LM did not improve: %v >= %v", chi, chiAt(start))
	}
	if math.Abs(p[1]-1) > 0.2 {
		t.Errorf("slope %v far from 1", p[1])
	}
}

func TestLMHandlesNaNStart(t *testing.T) {
	// A start that makes the model NaN must not panic and must return.
	xs := []float64{1, 2, 3}
	ys := []float64{1, 2, 3}
	f := func(p []float64, x float64) float64 {
		return math.Sqrt(p[0]) * x // NaN for negative p[0]
	}
	p, chi := LevenbergMarquardt(f, xs, ys, []float64{-1})
	if len(p) != 1 {
		t.Fatal("params length changed")
	}
	if !math.IsInf(chi, 1) {
		t.Logf("chi = %v (acceptable if finite after recovery)", chi)
	}
}

func TestLMZeroResidualStart(t *testing.T) {
	// Starting exactly at the optimum should stay there.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	f := func(p []float64, x float64) float64 { return p[0] * x }
	p, chi := LevenbergMarquardt(f, xs, ys, []float64{2})
	if chi > 1e-20 {
		t.Errorf("chi = %v at exact optimum", chi)
	}
	if math.Abs(p[0]-2) > 1e-9 {
		t.Errorf("param drifted: %v", p[0])
	}
}

// TestWorkspaceSteadyStateZeroAllocs locks in the solver's steady state for
// every kernel Levenberg–Marquardt fits: once a workspace has solved a
// problem, solving it again allocates nothing — Jacobian, normal
// equations, damped system, step, parameters and residuals are all
// recycled.
func TestWorkspaceSteadyStateZeroAllocs(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		k     *Kernel
		truth []float64
	}{
		{Rat22, []float64{1, 0.5, 0.02, 0.1, 0.004}},
		{Rat23, []float64{1, 0.5, 0.02, 0.1, 0.004, 0.0001}},
		{Rat33, []float64{1, 0.5, 0.02, 0.001, 0.1, 0.004, 0.0001}},
		{ExpRat, []float64{0.5, 0.1, 1, 0.01}},
	} {
		t.Run(c.k.Name, func(t *testing.T) {
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = c.k.Eval(c.truth, x) * (1 + 0.01*math.Sin(3*x))
			}
			start := c.k.Starts(xs, ys)[0]
			eval := c.k.window()
			var ws workspace
			p, chi := ws.levenbergMarquardt(eval, xs, ys, start)
			startChi, _ := residuals(eval, xs, ys, start, make([]float64, len(xs)))
			if !(chi < startChi) {
				t.Fatalf("solve did not improve on its start: chi %v, start chi %v", chi, startChi)
			}
			// The exported entry point, which evaluates the scalar Eval
			// point by point, must return the same bits as the kernel's
			// window evaluation on a reused workspace.
			ep, echi := LevenbergMarquardt(c.k.Eval, xs, ys, start)
			if math.Float64bits(echi) != math.Float64bits(chi) {
				t.Fatalf("LevenbergMarquardt chi %v != workspace chi %v", echi, chi)
			}
			for j := range p {
				if math.Float64bits(ep[j]) != math.Float64bits(p[j]) {
					t.Fatalf("LevenbergMarquardt p[%d] = %v, workspace %v", j, ep[j], p[j])
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				ws.levenbergMarquardt(eval, xs, ys, start)
			})
			if avg != 0 {
				t.Fatalf("steady-state %s solve allocates %.1f objects per run, want 0", c.k.Name, avg)
			}
		})
	}
}

// TestKernelWindowMatchesEval: every kernel Levenberg–Marquardt fits
// evaluates a window to exactly the bits its scalar Eval gives point by
// point, so fits (window form) and the realism checks and Fit.Eval (scalar
// form) see one function. Parameters include poles inside the window and
// ExpRat overflow, so NaN and ±Inf must land at the same indices too.
func TestKernelWindowMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Each rational kernel's denominator vanishes at x = 4 with b1 = -0.25
	// and the other denominator coefficients zero; a numerator that also
	// vanishes there turns the pole into 0/0. ExpRat's cases overflow and
	// underflow exp, and put c + d·x = 0 at x = 4 under a nonzero and a
	// zero numerator.
	poles := map[*Kernel][][]float64{
		Rat22:  {{1, 2, 0.5, -0.25, 0}, {-4, 1, 0, -0.25, 0}},
		Rat23:  {{1, 2, 0.5, -0.25, 0, 0}, {-4, 1, 0, -0.25, 0, 0}},
		Rat33:  {{1, 2, 0.5, 0.1, -0.25, 0, 0}, {-4, 1, 0, 0, -0.25, 0, 0}},
		ExpRat: {{800, 1, 1, 0}, {1, 1, -4, 1}, {-4, 1, -4, 1}, {-800, -1, 1, 0}},
	}
	cores := make([]float64, 24)
	for i := range cores {
		cores[i] = float64(i + 1)
	}
	for _, k := range []*Kernel{Rat22, Rat23, Rat33, ExpRat} {
		if k.evalWindow == nil {
			t.Fatalf("%s has no window evaluation", k.Name)
		}
		params := poles[k]
		for trial := 0; trial < 500; trial++ {
			p := make([]float64, k.NParams)
			for j := range p {
				p[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			params = append(params, p)
		}
		nan, inf := 0, 0
		for _, p := range params {
			// Whole core counts, as measured windows have, and fractional
			// points, as the realism grid has.
			frac := make([]float64, 1+rng.Intn(24))
			for i := range frac {
				frac[i] = 200 * rng.Float64()
			}
			for _, xs := range [][]float64{cores, frac} {
				out := make([]float64, len(xs))
				k.evalWindow(p, xs, out)
				for i, x := range xs {
					want := k.Eval(p, x)
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s params %v at x=%v: window %v (%#x), Eval %v (%#x)",
							k.Name, p, x, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
					}
					if math.IsNaN(want) {
						nan++
					} else if math.IsInf(want, 0) {
						inf++
					}
				}
			}
		}
		if nan == 0 || inf == 0 {
			t.Errorf("%s: %d NaN and %d infinite values; the cases must cover both", k.Name, nan, inf)
		}
	}
}

// TestConcurrentFitsMatchSerial: fits running at once on distinct inputs
// must return exactly the bits serial calls return, so no solver state —
// workspace, starts or the winning parameters — is shared between
// goroutines. Run it under -race.
func TestConcurrentFitsMatchSerial(t *testing.T) {
	const goroutines = 8
	const rounds = 3
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	type input struct{ ys, perturbed []float64 }
	inputs := make([]input, goroutines)
	for g := range inputs {
		fg := float64(g + 1)
		in := input{ys: make([]float64, len(xs)), perturbed: make([]float64, len(xs))}
		for i, x := range xs {
			in.ys[i] = (1+0.3*fg*x+0.02*fg*x*x)/(1+0.05*x) + 0.05*math.Sin(fg*x)
			in.perturbed[i] = in.ys[i] * (1 + 0.02*math.Cos(fg+x))
		}
		inputs[g] = in
	}
	type result struct{ approx, refit *Fit }
	run := func(in input) (result, error) {
		f, err := Approximate(xs, in.ys, Options{})
		if err != nil {
			return result{}, err
		}
		rf, err := Refit(f, xs, in.perturbed)
		return result{f, rf}, err
	}
	serial := make([]result, goroutines)
	for g, in := range inputs {
		r, err := run(in)
		if err != nil {
			t.Fatalf("input %d: %v", g, err)
		}
		serial[g] = r
	}

	got := make([][rounds]result, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < rounds && errs[g] == nil; k++ {
				got[g][k], errs[g] = run(inputs[g])
			}
		}(g)
	}
	close(start)
	wg.Wait()

	same := func(a, b *Fit) bool {
		if a.Kernel != b.Kernel || a.PrefixLen != b.PrefixLen || len(a.Params) != len(b.Params) ||
			math.Float64bits(a.YScale) != math.Float64bits(b.YScale) ||
			math.Float64bits(a.CheckpointRMSE) != math.Float64bits(b.CheckpointRMSE) {
			return false
		}
		for j := range a.Params {
			if math.Float64bits(a.Params[j]) != math.Float64bits(b.Params[j]) {
				return false
			}
		}
		return true
	}
	for g := range inputs {
		if errs[g] != nil {
			t.Fatalf("input %d concurrently: %v", g, errs[g])
		}
		for k := 0; k < rounds; k++ {
			if !same(got[g][k].approx, serial[g].approx) {
				t.Errorf("input %d round %d: concurrent Approximate %v differs from serial %v", g, k, got[g][k].approx, serial[g].approx)
			}
			if !same(got[g][k].refit, serial[g].refit) {
				t.Errorf("input %d round %d: concurrent Refit %v differs from serial %v", g, k, got[g][k].refit, serial[g].refit)
			}
		}
	}
}
