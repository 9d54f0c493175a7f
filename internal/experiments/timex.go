package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/fit"
)

// timePrediction is the baseline ESTIMA is compared against in §2.4 and
// §4.4: direct extrapolation of the measured execution time with the same
// function kernels and checkpoint-RMSE selection. It is accurate when the
// scalability trend is already visible in the measurements and fails when
// it is not (kmeans, intruder, yada), which is exactly the contrast Figures
// 1 and 7 of the paper draw.
type timePrediction struct {
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

// extrapolateTime fits the measured execution times directly and
// extrapolates them to the target core counts (validated by core.Targets).
func extrapolateTime(series *counters.Series, targetCores []int) (*timePrediction, error) {
	targets, err := core.Targets(targetCores)
	if err != nil {
		return nil, err
	}
	f, err := fit.Approximate(series.Cores(), series.Times(), fit.Options{MaxX: targets[len(targets)-1]})
	if err != nil {
		return nil, fmt.Errorf("time extrapolation: %w", err)
	}
	p := &timePrediction{
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
func (p *timePrediction) Errors(actual *counters.Series) (maxPct, meanPct float64, err error) {
	maxPct, meanPct, ok := core.PctErrors(p.TargetCores, p.Time, actual, 0, math.MaxInt)
	if !ok {
		return 0, 0, errors.New("time extrapolation: no overlapping core counts to evaluate")
	}
	return maxPct, meanPct, nil
}
