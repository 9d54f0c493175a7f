package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	registerExp("uncertainty",
		"Uncertainty: Table-4-style prediction errors with bootstrap confidence bands", uncertainty)
}

// uncertaintyBoot is the replicate count: enough for stable 90% quantiles
// (each replicate only refits already-selected kernels, so this is cheap
// next to the measurement simulation).
const uncertaintyBoot = 120

// uncertainty regenerates the Table 4 Opteron scenario — measure every
// benchmark on one processor (12 cores), predict cores 13..48 — with the
// residual-bootstrap stage enabled, reporting per workload the max error
// of the point estimate, the mean relative width of the 90% confidence
// band, the band's empirical coverage of the actually measured times, and
// the least stable category fit. A well-calibrated band is tight where the
// fits are stable and wide (but still covering) where they are not.
func uncertainty(e *env) (*Result, error) {
	m := machine.Opteron()
	names := workloads.Table4Names()
	type row struct {
		maxPct, width, coverage, minStab float64
	}
	rows, err := perName(names, func(name string) (row, error) {
		var r row
		full, err := e.series(name, m, m.NumCores(), 1)
		if err != nil {
			return r, err
		}
		targets := coresFrom(12, m.NumCores())
		// The service CPU gate bounds the fitting and bootstrap work;
		// Workers: 1 keeps each prediction from opening a second
		// NumCPU-wide pool inside it.
		pred, err := e.predict(name, m, 12, 1, targets, core.Options{
			UseSoftware: usesSoftwareStalls(name),
			Bootstrap:   uncertaintyBoot,
			Workers:     1,
		})
		if err != nil {
			return r, err
		}
		if r.maxPct, _, err = pred.Errors(full); err != nil {
			return r, err
		}
		widths := make([]float64, len(pred.TargetCores))
		covered, total := 0, 0
		for ti, c := range pred.TargetCores {
			widths[ti] = 100 * (pred.TimeHi[ti] - pred.TimeLo[ti]) / pred.Time[ti]
			for _, smp := range full.Samples {
				if smp.Cores == int(c) {
					total++
					if smp.Seconds >= pred.TimeLo[ti] && smp.Seconds <= pred.TimeHi[ti] {
						covered++
					}
				}
			}
		}
		r.width = stats.Mean(widths)
		if total > 0 {
			r.coverage = 100 * float64(covered) / float64(total)
		}
		r.minStab = 1
		for _, s := range pred.Stability {
			if s < r.minStab {
				r.minStab = s
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := &report.Table{
		Title: fmt.Sprintf("prediction uncertainty on the Opteron (12 measured cores, %d bootstrap resamples, %g%% CI)",
			uncertaintyBoot, float64(core.DefaultCILevel)),
		Headers: []string{"benchmark", "max err%", "CI width%", "coverage%", "min stability"},
	}
	var errs, widths, covs []float64
	for i, r := range rows {
		tbl.AddRow(names[i], report.Pct(r.maxPct), report.Pct(r.width),
			report.Pct(r.coverage), fmt.Sprintf("%.2f", r.minStab))
		errs = append(errs, r.maxPct)
		widths = append(widths, r.width)
		covs = append(covs, r.coverage)
	}
	tbl.AddRow("Average", report.Pct(stats.Mean(errs)), report.Pct(stats.Mean(widths)),
		report.Pct(stats.Mean(covs)), "")
	text := tbl.Render() + fmt.Sprintf(
		"\nmean band coverage of the measured times: %.1f%% (band level: %d%%)\n",
		stats.Mean(covs), core.DefaultCILevel)
	return &Result{Text: text}, nil
}
