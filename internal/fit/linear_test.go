package fit

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLinearLSQExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	basis := func(x float64) []float64 { return []float64{1, x} }
	p, err := LinearLSQ(xs, ys, basis, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-3) > 1e-8 || math.Abs(p[1]-2) > 1e-8 {
		t.Errorf("got %v, want [3 2]", p)
	}
}

func TestLinearLSQExactQuadratic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - 0.5*x + 0.25*x*x
	}
	basis := func(x float64) []float64 { return []float64{1, x, x * x} }
	p, err := LinearLSQ(xs, ys, basis, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -0.5, 0.25}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-7 {
			t.Errorf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestLinearLSQOverdeterminedResidual(t *testing.T) {
	// Noisy line: the LSQ solution must have no larger residual than the
	// true generating parameters.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	true0, true1 := 2.0, 1.5
	noise := []float64{0.1, -0.2, 0.05, 0.12, -0.07, 0.3, -0.15, 0.02}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = true0 + true1*x + noise[i]
	}
	basis := func(x float64) []float64 { return []float64{1, x} }
	p, err := LinearLSQ(xs, ys, basis, 2)
	if err != nil {
		t.Fatal(err)
	}
	ssq := func(a, b float64) float64 {
		s := 0.0
		for i, x := range xs {
			d := a + b*x - ys[i]
			s += d * d
		}
		return s
	}
	if ssq(p[0], p[1]) > ssq(true0, true1)+1e-9 {
		t.Errorf("LSQ residual %v worse than true params %v", ssq(p[0], p[1]), ssq(true0, true1))
	}
}

func TestLinearLSQBadInput(t *testing.T) {
	basis := func(x float64) []float64 { return []float64{1, x} }
	if _, err := LinearLSQ(nil, nil, basis, 2); err == nil {
		t.Error("empty input should error")
	}
	if _, err := LinearLSQ([]float64{1}, []float64{1, 2}, basis, 2); err == nil {
		t.Error("mismatched lengths should error")
	}
	badBasis := func(x float64) []float64 { return []float64{1} }
	if _, err := LinearLSQ([]float64{1, 2}, []float64{1, 2}, badBasis, 2); err == nil {
		t.Error("wrong basis width should error")
	}
}

func TestSolveLinearSingular(t *testing.T) {
	m := []float64{
		1, 1,
		1, 1,
	}
	b := []float64{1, 2}
	if err := solveLinear(m, b, make([]float64, 2)); !errors.Is(err, ErrSingular) {
		t.Errorf("singular system: err = %v, want ErrSingular", err)
	}
}

func TestLinearLSQRecoversPolynomialProperty(t *testing.T) {
	// For any smallish coefficients, fitting exact cubic data reproduces the
	// data (coefficients themselves are allowed to wander within the
	// conditioning of the normal equations).
	f := func(a, b, c, d int8) bool {
		ca, cb, cc, cd := float64(a)/8, float64(b)/8, float64(c)/8, float64(d)/8
		xs := []float64{1, 2, 3, 4, 5, 6, 7}
		ys := make([]float64, len(xs))
		maxAbs := 0.0
		for i, x := range xs {
			ys[i] = ca + cb*x + cc*x*x + cd*x*x*x
			if v := math.Abs(ys[i]); v > maxAbs {
				maxAbs = v
			}
		}
		basis := func(x float64) []float64 { return []float64{1, x, x * x, x * x * x} }
		p, err := LinearLSQ(xs, ys, basis, 4)
		if err != nil {
			return false
		}
		for i, x := range xs {
			got := p[0] + p[1]*x + p[2]*x*x + p[3]*x*x*x
			if math.Abs(got-ys[i]) > 1e-6*(1+maxAbs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
