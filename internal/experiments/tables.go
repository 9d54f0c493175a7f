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
	registerExp("table4", "Table 4: max prediction errors across the benchmark suites", table4)
	registerExp("table5", "Table 5: correlation of stalled cycles per core with time", table5)
	registerExp("table6", "Table 6: frontend+backend vs backend-only correlation", table6)
	registerExp("table7", "Table 7: predictions targeting the Xeon48", table7)
}

// table4Row computes one benchmark's banded errors on one machine. The full
// series (the comparison truth) is collected first, so the planner
// assembles the measurement window from its samples; the prediction itself
// is memoized and shared with any other runner of the same scenario
// (table7's first column re-reports it).
func table4Row(e *env, name string, m *machine.Config, measCores int, bands []core.ErrorBand) ([]core.ErrorBand, error) {
	full, err := e.series(name, m, m.NumCores(), 1)
	if err != nil {
		return nil, err
	}
	targets := coresFrom(measCores, m.NumCores())
	pred, err := e.predict(name, m, measCores, 1, targets, core.Options{UseSoftware: usesSoftwareStalls(name)})
	if err != nil {
		return nil, err
	}
	return pred.BandErrors(full, bands)
}

// table4 reproduces Table 4: maximum prediction errors for the 19 benchmark
// workloads, measuring on one processor of each machine (12 Opteron cores /
// 10 Xeon20 cores) and predicting the rest of the machine, banded by how
// many processors the prediction targets.
func table4(e *env) (*Result, error) {
	opteron := machine.Opteron()
	xeon := machine.Xeon20()
	opteronBands := []core.ErrorBand{
		{Label: "2 CPUs", MinCores: 12, MaxCores: 24},
		{Label: "3 CPUs", MinCores: 24, MaxCores: 36},
		{Label: "4 CPUs", MinCores: 36, MaxCores: 48},
	}
	xeonBands := []core.ErrorBand{{Label: "2 CPUs", MinCores: 10, MaxCores: 20}}

	names := workloads.Table4Names()
	rows, err := perName(names, func(name string) ([]float64, error) {
		ob, err := table4Row(e, name, opteron, 12, opteronBands)
		if err != nil {
			return nil, err
		}
		xb, err := table4Row(e, name, xeon, 10, xeonBands)
		if err != nil {
			return nil, err
		}
		return []float64{ob[0].MaxPctError, ob[1].MaxPctError, ob[2].MaxPctError, xb[0].MaxPctError}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := &report.Table{
		Title:   "max prediction errors (%), measured on one processor of each machine",
		Headers: []string{"benchmark", "Opt 2CPUs", "Opt 3CPUs", "Opt 4CPUs", "Xeon20 2CPUs"},
	}
	cols := addColumns(tbl, names, rows, report.Pct)
	addSummary(tbl, cols, report.Pct, average, stdDev, maximum)

	// The paper's headline claims for this table.
	count := func(vals []float64, below float64) int {
		n := 0
		for _, v := range vals {
			if v < below {
				n++
			}
		}
		return n
	}
	text := tbl.Render() + fmt.Sprintf(
		"\nXeon20 (2x cores): %d/19 workloads below 25%%, %d/19 below 10%% (paper: 15 and 9)\n"+
			"Opteron (4x cores): %d/19 workloads below 25%%, %d/19 below 10%% (paper: 16 and 9)\n",
		count(cols[3], 25), count(cols[3], 10),
		count(cols[2], 25), count(cols[2], 10))
	return &Result{Text: text}, nil
}

// correlationOf computes the stalls-per-core / time correlation of one
// workload over a full machine, including software stalls where the paper
// collects them.
func correlationOf(e *env, name string, m *machine.Config, includeFrontend bool) (float64, error) {
	s, err := e.series(name, m, m.NumCores(), 1)
	if err != nil {
		return 0, err
	}
	spc := s.StallsPerCore(usesSoftwareStalls(name), includeFrontend)
	return stats.Pearson(spc, s.Times())
}

// correlationTable renders Table 5 or 6: one value per benchmark on each
// full machine (Opteron, Xeon20, Xeon48), to two decimals, with the given
// summary rows under them.
func correlationTable(e *env, title string, value func(name string, m *machine.Config) (float64, error), summaries ...summary) (*Result, error) {
	machines := []*machine.Config{machine.Opteron(), machine.Xeon20(), machine.Xeon48()}
	names := workloads.Table4Names()
	rows, err := perName(names, func(name string) ([]float64, error) {
		vals := make([]float64, len(machines))
		for mi, m := range machines {
			v, err := value(name, m)
			if err != nil {
				return nil, err
			}
			vals[mi] = v
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: title, Headers: []string{"benchmark", "Opteron", "Xeon20", "Xeon48"}}
	twoDecimals := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	addSummary(tbl, addColumns(tbl, names, rows, twoDecimals), twoDecimals, summaries...)
	return &Result{Text: tbl.Render()}, nil
}

// table5 reproduces Table 5: the correlation between total stalled cycles
// per core and execution time over the full Opteron, Xeon20 and Xeon48 —
// the validity check of ESTIMA's central assumption (§5.1).
func table5(e *env) (*Result, error) {
	return correlationTable(e, "correlation of stalled cycles per core with execution time",
		func(name string, m *machine.Config) (float64, error) {
			return correlationOf(e, name, m, false)
		}, average, stdDev, minimum)
}

// table6 reproduces Table 6 (§5.2): how much adding frontend stalls changes
// the correlation — near zero or negative on average, confirming the
// backend-only design.
func table6(e *env) (*Result, error) {
	return correlationTable(e, "frontend+backend correlation improvement over backend-only (%)",
		func(name string, m *machine.Config) (float64, error) {
			base, err := correlationOf(e, name, m, false)
			if err != nil {
				return 0, err
			}
			withFE, err := correlationOf(e, name, m, true)
			if err != nil {
				return 0, err
			}
			return 100 * (withFE - base) / base, nil
		}, average)
}

// table7 reproduces Table 7 (§5.5): measuring on BOTH sockets of Xeon20
// (NUMA effects captured) and predicting the 48-core Xeon48, compared with
// the single-socket Xeon20 errors of Table 4. The paper's averages: 17.7%
// (Table 4) vs 13.9% (Xeon48 targeting).
func table7(e *env) (*Result, error) {
	x20 := machine.Xeon20()
	x48 := machine.Xeon48()
	freqRatio := x20.FreqGHz / x48.FreqGHz
	names := workloads.Table4Names()
	rows, err := perName(names, func(name string) ([]float64, error) {
		// Column 1: the Table 4 scenario.
		bands, err := table4Row(e, name, x20, 10,
			[]core.ErrorBand{{Label: "2 CPUs", MinCores: 10, MaxCores: 20}})
		if err != nil {
			return nil, err
		}
		// Column 2: both Xeon20 sockets measured, Xeon48 targeted.
		act, err := e.series(name, x48, x48.NumCores(), 1)
		if err != nil {
			return nil, err
		}
		targets := coresFrom(x20.NumCores(), x48.NumCores())
		pred, err := e.predict(name, x20, x20.NumCores(), 1, targets, core.Options{
			UseSoftware: usesSoftwareStalls(name),
			FreqRatio:   freqRatio,
		})
		if err != nil {
			return nil, err
		}
		maxPct, _, err := pred.Errors(act)
		if err != nil {
			return nil, err
		}
		return []float64{bands[0].MaxPctError, maxPct}, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "max prediction errors (%): Xeon20 single-socket (Table 4) vs Xeon20 full -> Xeon48",
		Headers: []string{"benchmark", "Xeon20", "Xeon20->Xeon48"},
	}
	cols := addColumns(tbl, names, rows, report.Pct)
	addSummary(tbl, cols, report.Pct, average, stdDev, maximum)
	text := tbl.Render() + fmt.Sprintf(
		"\npaper: average falls 17.7%% -> 13.9%% with lower std. dev.; here %.1f%% -> %.1f%%\n",
		stats.Mean(cols[0]), stats.Mean(cols[1]))
	return &Result{Text: text}, nil
}
