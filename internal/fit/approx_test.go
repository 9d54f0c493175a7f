package fit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pool"
)

// genSeries builds a measurement series at core counts 1..m.
func genSeries(m int, f func(x float64) float64) (xs, ys []float64) {
	for i := 1; i <= m; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	return xs, ys
}

func TestApproximateRecoversLogCurve(t *testing.T) {
	xs, ys := genSeries(12, func(x float64) float64 {
		l := math.Log(x)
		return 100 + 20*l + 5*l*l
	})
	fit, err := Approximate(xs, ys, Options{MaxX: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolation at 24 and 48 cores should stay close to the truth.
	for _, x := range []float64{24, 48} {
		l := math.Log(x)
		want := 100 + 20*l + 5*l*l
		got := fit.Eval(x)
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("at %v: got %v want %v (fit %v)", x, got, want, fit)
		}
	}
}

func TestApproximateRecoversGrowingPolynomial(t *testing.T) {
	// Quadratic growth such as coherence-driven stalls.
	xs, ys := genSeries(12, func(x float64) float64 { return 1e6 * (1 + 0.05*x*x) })
	fit, err := Approximate(xs, ys, Options{MaxX: 48})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6 * (1 + 0.05*48*48)
	got := fit.Eval(48)
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("extrapolation at 48: got %v want %v (fit %v)", got, want, fit)
	}
}

func TestApproximateChecksRealism(t *testing.T) {
	// A decreasing 1/x-like series: no fit should ever go negative in range.
	xs, ys := genSeries(12, func(x float64) float64 { return 1000 / x })
	fit, err := Approximate(xs, ys, Options{MaxX: 48})
	if err != nil {
		t.Fatal(err)
	}
	for x := 1.0; x <= 48; x++ {
		v := fit.Eval(x)
		if v < -0.02*1000 {
			t.Fatalf("fit %v is negative (%v) at x=%v", fit, v, x)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("fit %v non-finite at x=%v", fit, x)
		}
	}
}

func TestApproximateFewPointsFallback(t *testing.T) {
	// Only 3 measurements (desktop scenario, paper §4.3): the fallback path
	// must still produce a usable fit.
	xs := []float64{1, 2, 3}
	ys := []float64{10, 6, 4.5}
	fit, err := Approximate(xs, ys, Options{MaxX: 20})
	if err != nil {
		t.Fatal(err)
	}
	v := fit.Eval(10)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("non-finite extrapolation: %v", v)
	}
}

func TestApproximateErrorsOnBadInput(t *testing.T) {
	if _, err := Approximate([]float64{1}, []float64{1}, Options{}); err == nil {
		t.Error("single point should error")
	}
	if _, err := Approximate([]float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Approximate([]float64{2, 1, 3}, []float64{1, 2, 3}, Options{}); err == nil {
		t.Error("unsorted xs should error")
	}
	if _, err := Approximate([]float64{1, 2, 3}, []float64{1, math.NaN(), 3}, Options{}); err == nil {
		t.Error("NaN measurement should error")
	}
}

func TestCandidateFitsAllScored(t *testing.T) {
	xs, ys := genSeries(12, func(x float64) float64 { return 50 * x })
	cands, err := CandidateFits(xs, ys, Options{MaxX: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if math.IsNaN(c.CheckpointRMSE) || c.CheckpointRMSE < 0 {
			t.Errorf("bad checkpoint RMSE in %v", c)
		}
		if c.PrefixLen < 3 || c.PrefixLen > len(xs) {
			t.Errorf("bad prefix length in %v", c)
		}
	}
}

// TestSearchFitsInAnyOrder: a search's candidates may be fitted in any
// order and on any goroutines; the gathered candidates are CandidateFits'
// own, bit for bit, in the same kernel-major, prefix-minor order.
func TestSearchFitsInAnyOrder(t *testing.T) {
	xs, ys := genSeries(12, func(x float64) float64 { return (3 + 2*x + 0.4*x*x) / (1 + 0.05*x) * (1 + 0.02*math.Sin(3*x)) })
	opt := Options{MaxX: 48, TailSlopeCap: 4}
	want, err := CandidateFits(xs, ys, opt)
	if err != nil {
		t.Fatal(err)
	}
	reversed, concurrent := NewSearch(xs, ys, opt), NewSearch(xs, ys, opt)
	for i := reversed.Len() - 1; i >= 0; i-- {
		reversed.Fit(i)
	}
	pool.ForN(concurrent.Len(), 8, concurrent.Fit)
	for name, s := range map[string]*Search{"reversed": reversed, "concurrent": concurrent} {
		got, err := s.Candidates()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, CandidateFits %d", name, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Kernel != w.Kernel || g.PrefixLen != w.PrefixLen || !sameBits(g.Params, w.Params) ||
				math.Float64bits(g.CheckpointRMSE) != math.Float64bits(w.CheckpointRMSE) {
				t.Errorf("%s candidate %d: %v, CandidateFits %v", name, i, g, w)
			}
		}
	}
	if s := NewSearch(xs, ys[1:], opt); s.Len() != 0 {
		t.Errorf("a mismatched window has %d candidates, want 0", s.Len())
	} else if _, err := s.Candidates(); err != ErrBadInput {
		t.Errorf("mismatched window: Candidates error %v, want ErrBadInput", err)
	}
}

func TestApproximatePrefixAvoidsOverfitTail(t *testing.T) {
	// A series with a wobble only in the last fitting point: prefix
	// refitting means at least one candidate ignores the wobble, and the
	// checkpoint RMSE keeps the selection honest.
	xs, ys := genSeries(12, func(x float64) float64 { return 10 * x })
	ys[9] *= 1.3 // wobble at x=10 (checkpoints are x=11,12)
	fit, err := Approximate(xs, ys, Options{MaxX: 24})
	if err != nil {
		t.Fatal(err)
	}
	got := fit.Eval(24)
	want := 240.0
	if math.Abs(got-want)/want > 0.3 {
		t.Errorf("wobble destroyed extrapolation: got %v want %v (%v)", got, want, fit)
	}
}

func TestSelectByCorrelation(t *testing.T) {
	// Build a scaling factor that is exactly constant: the chosen candidate
	// must produce a time series with correlation ~1 to the reference.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	factor := make([]float64, len(xs))
	for i := range factor {
		factor[i] = 2.5
	}
	var targetXs, ref []float64
	for i := 1; i <= 48; i++ {
		targetXs = append(targetXs, float64(i))
		x := float64(i)
		ref = append(ref, 100/x+0.5*x) // U-shaped stalls-per-core
	}
	fit, err := SelectByCorrelation(xs, factor, targetXs, ref, Options{MaxX: 48})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{16, 32, 48} {
		got := fit.Eval(x)
		if math.Abs(got-2.5) > 0.5 {
			t.Errorf("factor at %v = %v, want ≈2.5", x, got)
		}
	}
}

func TestSelectByCorrelationBadInput(t *testing.T) {
	if _, err := SelectByCorrelation([]float64{1, 2, 3}, []float64{1, 2, 3}, nil, nil, Options{}); err == nil {
		t.Error("empty target should error")
	}
}

func TestKernelEvalSanity(t *testing.T) {
	// Every kernel with all-zero-ish params must evaluate finitely at
	// ordinary core counts.
	for _, k := range AllKernels {
		p := make([]float64, k.NParams)
		p[0] = 1
		if k == ExpRat {
			p = []float64{1, 0, 1, 0}
		}
		for _, x := range []float64{1, 2, 10, 48} {
			v := k.Eval(p, x)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s eval non-finite at %v", k.Name, x)
			}
		}
	}
}

func TestApproximateExactMemberProperty(t *testing.T) {
	// Property: for data generated by a CubicLn member with bounded random
	// coefficients, the selected fit's checkpoint RMSE is (near) zero.
	f := func(a, b, c int8) bool {
		ca, cb, cc := 100+math.Abs(float64(a)), float64(b)/4, math.Abs(float64(c))/16
		xs, ys := genSeries(12, func(x float64) float64 {
			l := math.Log(x)
			return ca + cb*l + cc*l*l
		})
		fit, err := Approximate(xs, ys, Options{MaxX: 48})
		if err != nil {
			return false
		}
		return fit.CheckpointRMSE < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFitEvalSeriesMatchesEval(t *testing.T) {
	xs, ys := genSeries(10, func(x float64) float64 { return 3 * x })
	fit, err := Approximate(xs, ys, Options{MaxX: 20})
	if err != nil {
		t.Fatal(err)
	}
	series := fit.EvalSeries(xs)
	for i, x := range xs {
		if series[i] != fit.Eval(x) {
			t.Errorf("series mismatch at %v", x)
		}
	}
}
