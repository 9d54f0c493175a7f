package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/report"
)

func init() {
	registerExp("ablation-aggregate", "Ablation: aggregate stall counter instead of fine-grained events", ablationAggregate)
	registerExp("ablation-checkpoints", "Ablation: checkpoint count c = 2 vs 4", ablationCheckpoints)
	registerExp("ablation-kernels", "Ablation: extrapolation kernel library subsets", ablationKernels)
}

// aggregateSeries collapses all backend (and, where collected, software)
// stall events of a series into one synthetic "AGGR" counter — what ESTIMA
// would see if it used the aggregate backend-stall event the paper's §2.5
// argues against.
func aggregateSeries(s *counters.Series, includeSoft bool) *counters.Series {
	out := &counters.Series{Workload: s.Workload, Machine: s.Machine}
	for _, smp := range s.Samples {
		total := smp.TotalBackend()
		if includeSoft {
			total += smp.TotalSoft()
		}
		out.Samples = append(out.Samples, counters.Sample{
			Cores:   smp.Cores,
			Seconds: smp.Seconds,
			Cycles:  smp.Cycles,
			HW:      map[string]float64{"AGGR": total},
			Soft:    map[string]float64{},
		})
	}
	return out
}

// ablationAggregate re-runs the Fig 5 scenario with a single aggregate
// counter: the prediction loses the early trends of the fine-grained
// categories, exactly the failure mode §2.5 and §3.2 describe.
func ablationAggregate(e *env) (*Result, error) {
	m := machine.Opteron()
	var sb strings.Builder
	for _, name := range []string{"intruder", "kmeans"} {
		full, err := e.series(name, m, m.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		measured := window(full, 12)
		targets := coresFrom(12, 48)

		fine, err := e.predict(name, m, 12, 1, targets, core.Options{UseSoftware: true})
		if err != nil {
			return nil, err
		}
		fineMax, _, err := fine.Errors(full)
		if err != nil {
			return nil, err
		}

		// The aggregate-counter ablation transforms the measured series, so
		// it cannot ride the planner (the store has no identity for the
		// synthetic series); it runs the pipeline directly.
		agg, err := core.PredictContext(e.ctx, aggregateSeries(measured, true), targets, core.Options{})
		if err != nil {
			return nil, err
		}
		aggMax, _, err := agg.Errors(full)
		if err != nil {
			return nil, err
		}
		sb.WriteString(fmt.Sprintf("%-10s fine-grained: max err %5.1f%% (stop %2d)   aggregate: max err %5.1f%% (stop %2d)   measured stop %2d\n",
			name, fineMax, fine.ScalingStop(), aggMax, agg.ScalingStop(), core.ScalingStopOf(full)))
	}
	return &Result{Text: sb.String()}, nil
}

// ablationCheckpoints compares the paper's two checkpoint settings (§3.1.2:
// "we set c to 2 and 4").
func ablationCheckpoints(e *env) (*Result, error) {
	m := machine.Opteron()
	names := []string{"genome", "intruder", "raytrace", "canneal", "K-NN"}
	rows, err := perName(names, func(name string) ([]float64, error) {
		var errs []float64
		for _, c := range []int{2, 4} {
			maxPct, _, err := e.scored(name, m, 12, core.Options{
				UseSoftware: usesSoftwareStalls(name), Checkpoints: c,
			})
			if err != nil {
				return nil, err
			}
			errs = append(errs, maxPct)
		}
		return errs, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "max prediction error (13..48 cores, Opteron) by checkpoint count",
		Headers: []string{"benchmark", "c=2", "c=4"},
	}
	addColumns(tbl, names, rows, report.Pct)
	return &Result{Text: tbl.Render()}, nil
}

// ablationKernels compares the full Table 1 kernel library against
// restricted subsets, showing what the rational/exponential kernels add.
func ablationKernels(e *env) (*Result, error) {
	m := machine.Opteron()
	subsets := []struct {
		label   string
		kernels []*fit.Kernel
	}{
		{"all 6", nil},
		{"rationals", []*fit.Kernel{fit.Rat22, fit.Rat23, fit.Rat33}},
		{"poly/log", []*fit.Kernel{fit.CubicLn, fit.Poly25}},
	}
	tbl := &report.Table{
		Title:   "max prediction error (13..48 cores, Opteron) by kernel library",
		Headers: []string{"benchmark", "all 6", "rationals", "poly/log"},
	}
	for _, name := range []string{"genome", "intruder", "blackscholes", "canneal"} {
		full, err := e.series(name, m, m.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		targets := coresFrom(12, 48)
		row := []any{name}
		for _, sub := range subsets {
			// A custom kernel library bypasses the planner's memo (kernels
			// have no canonical fingerprint) but still shares the
			// measurement layer and the service CPU gate.
			pred, err := e.predict(name, m, 12, 1, targets, core.Options{
				UseSoftware: usesSoftwareStalls(name), Kernels: sub.kernels,
			})
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			maxPct, _, err := pred.Errors(full)
			if err != nil {
				return nil, err
			}
			row = append(row, report.Pct(maxPct))
		}
		tbl.AddRow(row...)
	}
	return &Result{Text: tbl.Render()}, nil
}
