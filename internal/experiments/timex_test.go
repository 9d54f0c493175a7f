package experiments

import (
	"math"
	"testing"

	"repro/internal/counters"
)

// timesSeries is a series of the given per-core-count times.
func timesSeries(times map[int]float64) *counters.Series {
	s := &counters.Series{Workload: "w", Machine: "m"}
	for c, t := range times {
		s.Samples = append(s.Samples, counters.Sample{Cores: c, Seconds: t})
	}
	s.Sort()
	return s
}

func TestExtrapolateTimeAmdahlCurve(t *testing.T) {
	// time(p) = 0.1/p + 0.01: a clean Amdahl curve the kernels can follow.
	times := map[int]float64{}
	for p := 1; p <= 12; p++ {
		times[p] = 0.1/float64(p) + 0.01
	}
	s := timesSeries(times)
	pred, err := extrapolateTime(s, []int{24, 48})
	if err != nil {
		t.Fatal(err)
	}
	want24 := 0.1/24 + 0.01
	if math.Abs(pred.Time[0]-want24)/want24 > 0.2 {
		t.Errorf("at 24: got %v want %v (fit %v)", pred.Time[0], want24, pred.Fit)
	}
	if pred.Workload != "w" || pred.MeasuredOn != "m" {
		t.Error("metadata lost")
	}
}

func TestExtrapolateTimeMissesHiddenKnee(t *testing.T) {
	// The kmeans failure mode (paper Fig 1): time improves through the
	// window, collapses beyond. Direct time extrapolation predicts
	// continued improvement.
	full := map[int]float64{}
	for p := 1; p <= 48; p++ {
		base := 0.1/float64(p) + 0.005
		if p > 16 {
			base += 0.002 * float64(p-16) // hidden collapse
		}
		full[p] = base
	}
	measured := map[int]float64{}
	for p := 1; p <= 12; p++ {
		measured[p] = full[p]
	}
	s := timesSeries(measured)
	pred, err := extrapolateTime(s, []int{48})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Time[0] >= full[48] {
		t.Errorf("time extrapolation 'sees' the hidden knee: %v >= %v (suspicious)", pred.Time[0], full[48])
	}
	// And the error evaluation reports the resulting miss.
	actual := timesSeries(map[int]float64{48: full[48]})
	maxPct, meanPct, err := pred.Errors(actual)
	if err != nil {
		t.Fatal(err)
	}
	if maxPct <= 10 || meanPct <= 0 {
		t.Errorf("expected a large error, got max %.1f%%", maxPct)
	}
}

func TestExtrapolateTimeBadInput(t *testing.T) {
	s := timesSeries(map[int]float64{1: 1, 2: 0.5, 3: 0.4})
	if _, err := extrapolateTime(&counters.Series{}, []int{4}); err == nil {
		t.Error("empty series should error")
	}
	if _, err := extrapolateTime(s, nil); err == nil {
		t.Error("no targets should error")
	}
	if _, err := extrapolateTime(s, []int{0}); err == nil {
		t.Error("target 0 should error")
	}
	p, err := extrapolateTime(s, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Errors(&counters.Series{}); err == nil {
		t.Error("no overlap should error")
	}
}
