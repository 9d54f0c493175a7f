package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestRMSE(t *testing.T) {
	r, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("RMSE identical = %v, %v", r, err)
	}
	r, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || !almostEqual(r, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v, want sqrt(12.5)", r)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RMSE length mismatch should error")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("RMSE empty should error")
	}
}

func TestNRMSE(t *testing.T) {
	r, err := NRMSE([]float64{2, 2}, []float64{1, 1})
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("NRMSE = %v, want 1", r)
	}
	// All-zero observations fall back to plain RMSE.
	r, err = NRMSE([]float64{1, 1}, []float64{0, 0})
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("NRMSE zero-obs = %v, want 1", r)
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect positive corr = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect negative corr = %v", r)
	}
	// Both constant: defined as 1 here.
	r, _ = Pearson([]float64{3, 3}, []float64{7, 7})
	if r != 1 {
		t.Errorf("constant-constant corr = %v, want 1", r)
	}
	// One constant: defined as 0.
	r, _ = Pearson([]float64{3, 3}, []float64{1, 2})
	if r != 0 {
		t.Errorf("constant-varying corr = %v, want 0", r)
	}
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true // skip pathological inputs
			}
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPearsonSelfCorrelationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r, err := Pearson(raw, raw)
		if err != nil {
			return false
		}
		return almostEqual(r, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPearsonInvariantUnderAffineProperty(t *testing.T) {
	// corr(x, a*y+b) == corr(x, y) for a > 0.
	f := func(seed int64) bool {
		xs := []float64{1, 3, 2, 5, 4, 8, 7}
		ys := []float64{2, 1, 4, 3, 6, 5, 9}
		a := 1 + math.Abs(float64(seed%97))/10
		b := float64(seed % 13)
		scaled := make([]float64, len(ys))
		for i, y := range ys {
			scaled[i] = a*y + b
		}
		r1, _ := Pearson(xs, ys)
		r2, _ := Pearson(xs, scaled)
		return almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAbsPctErr(t *testing.T) {
	if got := AbsPctErr(110, 100); !almostEqual(got, 10, 1e-12) {
		t.Errorf("AbsPctErr = %v, want 10", got)
	}
	if got := AbsPctErr(90, 100); !almostEqual(got, 10, 1e-12) {
		t.Errorf("AbsPctErr = %v, want 10", got)
	}
	if got := AbsPctErr(0, 0); got != 0 {
		t.Errorf("AbsPctErr(0,0) = %v, want 0", got)
	}
	if got := AbsPctErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsPctErr(1,0) = %v, want +Inf", got)
	}
}

func TestMaxAndMeanAbsPctErr(t *testing.T) {
	pred := []float64{110, 95, 100}
	act := []float64{100, 100, 100}
	m, err := MaxAbsPctErr(pred, act)
	if err != nil || !almostEqual(m, 10, 1e-12) {
		t.Errorf("MaxAbsPctErr = %v", m)
	}
	mean, err := MeanAbsPctErr(pred, act)
	if err != nil || !almostEqual(mean, 5, 1e-12) {
		t.Errorf("MeanAbsPctErr = %v, want 5", mean)
	}
	if _, err := MaxAbsPctErr(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Error("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
	if !AllFinite(nil) {
		t.Error("empty slice should be finite")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.125, 1.5},
		{-1, 1}, {2, 5}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := xs[0]; got != 4 {
		t.Error("Quantile must not reorder its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty Quantile should be NaN")
	}
	if got := Quantile(xs, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %v, want NaN", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element Quantile = %v", got)
	}
}
