// Package timex implements the baseline ESTIMA is compared against in §2.4
// and §4.4: direct extrapolation of the measured execution time with the
// same function kernels and checkpoint-RMSE selection. It is accurate when
// the scalability trend is already visible in the measurements and fails
// when it is not (kmeans, intruder, yada), which is exactly the contrast
// Figures 1 and 7 of the paper draw.
package timex

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/fit"
)

// Prediction is a time-extrapolation result.
type Prediction struct {
	// Workload and MeasuredOn identify the input series.
	Workload   string
	MeasuredOn string
	// TargetCores are the predicted core counts.
	TargetCores []float64
	// Fit is the selected extrapolation function.
	Fit *fit.Fit
	// Time is the predicted execution time in seconds over TargetCores.
	Time []float64
}

// Extrapolate fits the measured execution times directly and extrapolates
// them to the target core counts.
func Extrapolate(series *counters.Series, targetCores []int, opt fit.Options) (*Prediction, error) {
	if len(series.Samples) < 2 {
		return nil, errors.New("timex: need at least two measurement samples")
	}
	if len(targetCores) == 0 {
		return nil, errors.New("timex: no target core counts")
	}
	targets := make([]float64, len(targetCores))
	for i, c := range targetCores {
		if c < 1 {
			return nil, fmt.Errorf("timex: bad target core count %d", c)
		}
		targets[i] = float64(c)
	}
	sort.Float64s(targets)
	if opt.MaxX <= 0 {
		opt.MaxX = targets[len(targets)-1]
	}
	f, err := fit.Approximate(series.Cores(), series.Times(), opt)
	if err != nil {
		return nil, fmt.Errorf("timex: %w", err)
	}
	p := &Prediction{
		Workload:    series.Workload,
		MeasuredOn:  series.Machine,
		TargetCores: targets,
		Fit:         f,
		Time:        make([]float64, len(targets)),
	}
	for i, x := range targets {
		v := f.Eval(x)
		if v < 0 {
			v = 0
		}
		p.Time[i] = v
	}
	return p, nil
}

// Errors evaluates the prediction against an actual series, returning the
// maximum and mean absolute percentage error over overlapping core counts
// (core.PctErrors).
func (p *Prediction) Errors(actual *counters.Series) (maxPct, meanPct float64, err error) {
	maxPct, meanPct, ok := core.PctErrors(p.TargetCores, p.Time, actual, 0, math.MaxInt)
	if !ok {
		return 0, 0, errors.New("timex: no overlapping core counts to evaluate")
	}
	return maxPct, meanPct, nil
}
