package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/timex"
)

func init() {
	registerExp("fig7", "Fig 7: ESTIMA vs time extrapolation errors", fig7)
	registerExp("fig8", "Fig 8: prediction curves (raytrace, intruder, yada, kmeans)", fig8)
	registerExp("fig9", "Fig 9: weak scaling with a 2x dataset (genome, intruder)", fig9)
	registerExp("fig10", "Fig 10: streamcluster and intruder slowdown extrapolations", fig10)
	registerExp("fig11", "Fig 11: fixing the identified bottlenecks", fig11)
	registerExp("fig12", "Fig 12: time and stalls for two data-structure microbenchmarks", fig12)
}

// opteronPrediction runs the standard Opteron scenario: measure 1..12,
// predict 13..48.
func opteronPrediction(e *env, name string) (pred *core.Prediction, tx *timex.Prediction, actual *counters.Series, err error) {
	m := machine.Opteron()
	full, err := e.series(name, m, m.NumCores(), 1)
	if err != nil {
		return nil, nil, nil, err
	}
	targets := coresFrom(12, 48)
	pred, err = e.predict(name, m, 12, 1, targets, core.Options{UseSoftware: usesSoftwareStalls(name)})
	if err != nil {
		return nil, nil, nil, err
	}
	// The direct time extrapolation (the baseline ESTIMA beats) fits the
	// measured window itself; it is cheap and stays outside the planner.
	tx, err = timex.Extrapolate(window(full, 12), targets, fit.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	return pred, tx, full, nil
}

// fig7 reproduces Figure 7: the workloads where ESTIMA beats direct time
// extrapolation the most, with max errors for both methods.
func fig7(e *env) (*Result, error) {
	tbl := &report.Table{
		Title:   "max prediction error (13..48 cores, Opteron), ESTIMA vs time extrapolation",
		Headers: []string{"benchmark", "estima%", "time-extrap%"},
	}
	for _, name := range []string{"intruder", "yada", "kmeans", "streamcluster", "raytrace", "genome"} {
		pred, tx, full, err := opteronPrediction(e, name)
		if err != nil {
			return nil, err
		}
		ePct, _, err := pred.Errors(full)
		if err != nil {
			return nil, err
		}
		tPct, _, err := tx.Errors(full)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(name, report.Pct(ePct), report.Pct(tPct))
	}
	return &Result{Text: tbl.Render()}, nil
}

// fig8 reproduces Figure 8: full prediction curves for raytrace, intruder,
// yada and kmeans on the Opteron.
func fig8(e *env) (*Result, error) {
	var sb strings.Builder
	for _, name := range []string{"raytrace", "intruder", "yada", "kmeans"} {
		pred, tx, full, err := opteronPrediction(e, name)
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s on Opteron (measured on 12 cores)", name),
			Headers: []string{"cores", "measured(s)", "estima(s)", "time-extrap(s)"},
		}
		for _, smp := range full.Samples {
			if smp.Cores <= 12 {
				continue
			}
			ep, _ := pred.TimeAt(smp.Cores)
			var tp float64
			for i, c := range tx.TargetCores {
				if int(c) == smp.Cores {
					tp = tx.Time[i]
				}
			}
			tbl.AddRow(smp.Cores, report.Sec(smp.Seconds), report.Sec(ep), report.Sec(tp))
		}
		maxPct, _, _ := pred.Errors(full)
		sb.WriteString(tbl.Render())
		sb.WriteString(fmt.Sprintf("estima max error %.1f%%; stop predicted %d / measured %d\n\n",
			maxPct, pred.ScalingStop(), core.ScalingStopOf(window(full, 48))))
	}
	return &Result{Text: sb.String()}, nil
}

// fig9 reproduces the weak-scaling experiment of §4.5: genome and intruder
// measured on one Xeon20 socket with the default dataset, predicted for the
// full machine with a 2x dataset. Paper max errors (excluding one core):
// 29% and 28%.
func fig9(e *env) (*Result, error) {
	m := machine.Xeon20()
	var sb strings.Builder
	for _, name := range []string{"genome", "intruder"} {
		meas, err := e.series(name, m, 10, 1)
		if err != nil {
			return nil, err
		}
		actual, err := e.series(name, m, m.NumCores(), 2) // 2x dataset
		if err != nil {
			return nil, err
		}
		targets := coresFrom(0, m.NumCores())
		pred, err := e.predict(name, m, 10, 1, targets, core.Options{
			UseSoftware:  usesSoftwareStalls(name),
			DatasetScale: 2,
		})
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s: measured 10 cores @1x data, predicted 20 cores @2x data", name),
			Headers: []string{"cores", "predicted(s)", "measured@2x(s)", "err%"},
		}
		for i, smp := range actual.Samples {
			tbl.AddRow(smp.Cores, report.Sec(pred.Time[i]), report.Sec(smp.Seconds),
				report.Pct(stats.AbsPctErr(pred.Time[i], smp.Seconds)))
		}
		sb.WriteString(tbl.Render())
		// The paper excludes the single-core error.
		maxPct, _, _ := core.PctErrors(pred.TargetCores, pred.Time, actual, 1, m.NumCores())
		fp := meas.Samples[len(meas.Samples)-1].FootprintBytes
		sb.WriteString(fmt.Sprintf("max error excluding 1 core: %.1f%%; measured footprint %d bytes (target 2x)\n\n", maxPct, fp))
	}
	return &Result{Text: sb.String()}, nil
}

// fig10 reproduces Figure 10: the slowdown extrapolations for streamcluster
// and intruder with both hardware and software stalls, plus the bottleneck
// attribution of §4.6: the diagnosis ranks the predicted categories at 48
// cores, and the 12-core measurement names the code sites behind them.
func fig10(e *env) (*Result, error) {
	var sb strings.Builder
	for _, name := range []string{"streamcluster", "intruder"} {
		pred, _, full, err := opteronPrediction(e, name)
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s on Opteron: 12 measured cores -> 48", name),
			Headers: []string{"cores", "predicted(s)", "measured(s)"},
		}
		for _, smp := range full.Samples {
			if smp.Cores <= 12 || smp.Cores%4 != 0 {
				continue
			}
			p, _ := pred.TimeAt(smp.Cores)
			tbl.AddRow(smp.Cores, report.Sec(p), report.Sec(smp.Seconds))
		}
		sb.WriteString(tbl.Render())
		d, err := pred.Diagnose()
		if err != nil {
			return nil, err
		}
		measured := window(full, 12)
		at12 := measured.Samples[len(measured.Samples)-1]
		last := len(d.TargetCores) - 1
		sb.WriteString("dominant predicted stall categories at 48 cores:\n")
		for i, cd := range d.RankAt(last) {
			v := cd.Values[last]
			if i >= 3 || v <= 0 {
				break
			}
			growth := 0.0
			if m := measuredCycles(at12, cd.Category); m > 0 {
				growth = v / m
			}
			sb.WriteString(fmt.Sprintf("  %-14s %5.1f%% of stalls, %4.1fx growth", cd.Category, 100*cd.Shares[last], growth))
			if site, share := topSite(at12, cd.Category); site != "" {
				sb.WriteString(fmt.Sprintf("  top site: %s (%.0f%%)", site, 100*share))
			}
			sb.WriteString("\n")
		}
		sb.WriteString("\n")
	}
	return &Result{Text: sb.String()}, nil
}

// measuredCycles is a stall category's cycles in one measured sample. Event
// codes and software names never collide, so at most one term is nonzero.
func measuredCycles(s counters.Sample, cat string) float64 {
	return s.HW[cat] + s.Soft[cat] + s.Frontend[cat]
}

// topSite returns the code site holding most of a category's cycles in one
// sample (ties to the smaller site name) and its share of them, summing in
// sorted site order so the share is the same on every run. It returns ""
// when no site recorded the category.
func topSite(s counters.Sample, cat string) (string, float64) {
	sites := make([]string, 0, len(s.Sites))
	for site := range s.Sites {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	top, topV, total := "", 0.0, 0.0
	for _, site := range sites {
		v := s.Sites[site][cat]
		if v <= 0 {
			continue
		}
		total += v
		if v > topV {
			top, topV = site, v
		}
	}
	if top == "" {
		return "", 0
	}
	return top, topV / total
}

// fig11 reproduces Figure 11: the fixed applications. streamcluster's
// pthread mutex barriers are replaced with test-and-set spin barriers (paper:
// up to 74% faster) and intruder decodes more elements per transaction
// (paper: up to 70% faster).
func fig11(e *env) (*Result, error) {
	m := machine.Opteron()
	var sb strings.Builder
	for _, pair := range [][2]string{
		{"streamcluster", "streamcluster-spin"},
		{"intruder", "intruder-batch"},
	} {
		orig, err := e.series(pair[0], m, m.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		fixed, err := e.series(pair[1], m, m.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s vs %s on Opteron", pair[0], pair[1]),
			Headers: []string{"cores", "original(s)", "fixed(s)", "improvement%"},
		}
		best := 0.0
		for i, smp := range orig.Samples {
			if smp.Cores%4 != 0 && smp.Cores != 1 {
				continue
			}
			impr := 100 * (smp.Seconds - fixed.Samples[i].Seconds) / smp.Seconds
			if impr > best {
				best = impr
			}
			tbl.AddRow(smp.Cores, report.Sec(smp.Seconds), report.Sec(fixed.Samples[i].Seconds), report.Pct(impr))
		}
		sb.WriteString(tbl.Render())
		sb.WriteString(fmt.Sprintf("max improvement %.0f%% (paper: up to %d%%)\n\n",
			best, map[string]int{"streamcluster": 74, "intruder": 70}[pair[0]]))
	}
	return &Result{Text: sb.String()}, nil
}

// fig12 reproduces Figure 12: execution time and stalled cycles per core for
// the lock-based hash table on Xeon20 and the lock-free skip list on Xeon48
// — the lower-correlation cases of Table 5 whose curves still match.
func fig12(e *env) (*Result, error) {
	var sb strings.Builder
	for _, c := range []struct {
		name string
		m    *machine.Config
	}{
		{"lock-based HT", machine.Xeon20()},
		{"lock-free SL", machine.Xeon48()},
	} {
		s, err := e.series(c.name, c.m, c.m.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		spc := s.StallsPerCore(false, false)
		corr, _ := stats.Pearson(spc, s.Times())
		tbl := &report.Table{
			Title:   fmt.Sprintf("%s on %s (correlation %.2f)", c.name, c.m.Name, corr),
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
