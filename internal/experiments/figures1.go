package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/stats"
)

func init() {
	registerExp("fig1", "Fig 1: time extrapolation mispredicts kmeans", fig1)
	registerExp("fig2", "Fig 2: stalled cycles per core track execution time", fig2)
	registerExp("fig5", "Fig 5: step-by-step intruder prediction on the Opteron", fig5)
	registerExp("fig6", "Fig 6: memcached and SQLite predicted from a desktop", fig6)
}

// fig1 reproduces Figure 1: extrapolating kmeans' execution time directly
// from 12-core measurements predicts continued scaling to 48 cores, while
// the application actually stops scaling mid-range.
func fig1(e *env) (*Result, error) {
	m := machine.Opteron()
	full, err := e.series("kmeans", m, m.NumCores(), 1)
	if err != nil {
		return nil, err
	}
	measured := window(full, 12)
	tp, err := extrapolateTime(measured, coresFrom(0, 48))
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "kmeans on Opteron: measured time vs direct time extrapolation (12 measured cores)",
		Headers: []string{"cores", "measured(s)", "time-extrapolation(s)"},
	}
	for i, smp := range full.Samples {
		tbl.AddRow(smp.Cores, report.Sec(smp.Seconds), report.Sec(tp.Time[i]))
	}
	actKnee := core.ScalingStopOf(full)
	extKnee := core.SaturationPoint(tp.TargetCores, tp.Time)
	text := tbl.Render() + fmt.Sprintf(
		"\nmeasured scaling saturates at %d cores; time extrapolation (%s) claims scaling continues to %d cores\n",
		actKnee, tp.Fit, extKnee)
	return &Result{Text: text}, nil
}

// fig2 reproduces Figure 2: for intruder and blackscholes the total stalled
// cycles per core and the execution time have correlation ≈ 1.00.
func fig2(e *env) (*Result, error) {
	m := machine.Opteron()
	var sb strings.Builder
	for _, name := range []string{"intruder", "blackscholes"} {
		s, err := e.series(name, m, m.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		spc := s.StallsPerCore(usesSoftwareStalls(name), false)
		corr, err := stats.Pearson(spc, s.Times())
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s on Opteron (correlation stalls/core vs time: %.2f)", name, corr),
			Headers: []string{"cores", "time(s)", "stalls/core"},
		}
		for i, smp := range s.Samples {
			tbl.AddRow(smp.Cores, report.Sec(smp.Seconds), spc[i])
		}
		sb.WriteString(tbl.Render())
		sb.WriteString("\n")
	}
	return &Result{Text: sb.String()}, nil
}

// fig5 reproduces the paper's running example: intruder measured on one
// Opteron processor (12 cores), every stall category extrapolated
// individually (panels a–f), combined into stalls per core (g), the scaling
// factor fitted by correlation (h), and the execution time predicted for
// the full 48-core machine (i).
func fig5(e *env) (*Result, error) {
	m := machine.Opteron()
	full, err := e.series("intruder", m, m.NumCores(), 1)
	if err != nil {
		return nil, err
	}
	targets := coresFrom(0, 48)
	pred, err := e.predict("intruder", m, 12, 1, targets, core.Options{UseSoftware: true})
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("(a-f) per-category extrapolations (measured left of core 12; prediction beyond)\n")
	cats := sortedCats(pred.CategoryValues)
	tbl := &report.Table{Headers: append([]string{"cores"}, cats...)}
	for i, smp := range full.Samples {
		row := []any{smp.Cores}
		for _, cat := range cats {
			if smp.Cores <= 12 {
				v := smp.HW[cat]
				if v == 0 {
					v = smp.Soft[cat]
				}
				row = append(row, v)
			} else {
				row = append(row, pred.CategoryValues[cat][i])
			}
		}
		tbl.AddRow(row...)
	}
	sb.WriteString(tbl.Render())

	sb.WriteString("\nselected kernels per category:\n")
	for _, cat := range cats {
		if f := pred.CategoryFits[cat]; f != nil {
			sb.WriteString(fmt.Sprintf("  %-14s %s\n", cat, f))
		}
	}

	sb.WriteString("\n(g) total stalled cycles per core, (h) scaling factor, (i) time prediction vs measurement\n")
	tbl2 := &report.Table{Headers: []string{"cores", "stalls/core(pred)", "factor", "predicted(s)", "measured(s)"}}
	for i, smp := range full.Samples {
		tbl2.AddRow(smp.Cores, pred.StallsPerCore[i], pred.FactorFit.Eval(float64(smp.Cores)),
			report.Sec(pred.Time[i]), report.Sec(smp.Seconds))
	}
	sb.WriteString(tbl2.Render())

	ext := window(full, 48)
	extTargets := coresFrom(12, 48)
	predExt, err := e.predict("intruder", m, 12, 1, extTargets, core.Options{UseSoftware: true})
	if err != nil {
		return nil, err
	}
	maxPct, meanPct, err := predExt.Errors(ext)
	if err != nil {
		return nil, err
	}
	sb.WriteString(fmt.Sprintf("\nextrapolated-region error (13..48 cores): max %.1f%%, mean %.1f%%\n", maxPct, meanPct))
	sb.WriteString(fmt.Sprintf("scaling stop: predicted %d cores, measured %d cores\n",
		predExt.ScalingStop(), core.ScalingStopOf(ext)))
	return &Result{Text: sb.String()}, nil
}

// fig6 reproduces the production-application predictions of §4.3: memcached
// measured on 3 desktop cores and SQLite on 4, both extrapolated to the
// 20-core Xeon with frequency scaling. Paper errors: below 30% and 26%.
func fig6(e *env) (*Result, error) {
	desktop := machine.HaswellDesktop()
	server := machine.Xeon20()
	freqRatio := desktop.FreqGHz / server.FreqGHz

	var sb strings.Builder
	for _, c := range []struct {
		name     string
		measured int
	}{
		{"memcached", 3},
		{"sqlite", 4},
	} {
		act, err := e.series(c.name, server, server.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		targets := coresFrom(0, server.NumCores())
		pred, err := e.predict(c.name, desktop, c.measured, 1, targets, core.Options{FreqRatio: freqRatio})
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s: measured on %d cores of %s, predicted for %s", c.name, c.measured, desktop.Name, server.Name),
			Headers: []string{"cores", "predicted(s)", "measured(s)", "err%"},
		}
		for i, smp := range act.Samples {
			tbl.AddRow(smp.Cores, report.Sec(pred.Time[i]), report.Sec(smp.Seconds),
				report.Pct(stats.AbsPctErr(pred.Time[i], smp.Seconds)))
		}
		sb.WriteString(tbl.Render())
		maxPct, _, _ := core.PctErrors(pred.TargetCores, pred.Time, act, c.measured, server.NumCores())
		sb.WriteString(fmt.Sprintf("max error beyond the measurement window: %.1f%% (paper: <%d%%)\n",
			maxPct, map[string]int{"memcached": 30, "sqlite": 26}[c.name]))
		sb.WriteString(fmt.Sprintf("scaling stop: predicted %d cores, measured %d cores\n\n",
			pred.ScalingStop(), core.ScalingStopOf(act)))
	}
	return &Result{Text: sb.String()}, nil
}
