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
	registerExp("fig13", "Fig 13: prediction errors with and without software stalls", fig13)
	registerExp("fig14", "Fig 14: software stalls complete streamcluster's picture", fig14)
	registerExp("fig15", "Fig 15: streamcluster predicted from 12 vs 24 measured cores", fig15)
	registerExp("fig16", "Fig 16: capturing NUMA effects in the measurements", fig16)
}

// fig13 reproduces Figure 13: for the workloads with software stall
// sources (STAMP via SwissTM statistics; streamcluster via the pthread
// wrapper), prediction errors with and without the software categories.
// The paper reports an average improvement of 57%.
func fig13(e *env) (*Result, error) {
	m := machine.Opteron()
	names := []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2",
		"vacation-high", "vacation-low", "yada", "streamcluster"}
	rows, err := perName(names, func(name string) ([]float64, error) {
		hw, _, err := e.scored(name, m, 12, core.Options{})
		if err != nil {
			return nil, err
		}
		sw, _, err := e.scored(name, m, 12, core.Options{UseSoftware: true})
		if err != nil {
			return nil, err
		}
		return []float64{hw, sw}, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "max prediction error (13..48 cores, Opteron) with and without software stalls",
		Headers: []string{"benchmark", "hw-only%", "hw+sw%"},
	}
	cols := addColumns(tbl, names, rows, report.Pct)
	hw, sw := stats.Mean(cols[0]), stats.Mean(cols[1])
	text := tbl.Render() + fmt.Sprintf(
		"\naverage max error: hw-only %.1f%%, hw+sw %.1f%% (improvement %.0f%%; paper: 57%% average)\n",
		hw, sw, 100*(hw-sw)/hw)
	return &Result{Text: text}, nil
}

// fig14 reproduces Figure 14: with hardware stalls only, streamcluster's
// stalled cycles per core miss the synchronization bottleneck (lower
// correlation with time); adding the pthread-wrapper cycles completes the
// picture. Paper correlations: 0.86 hardware-only vs 0.98 with software.
func fig14(e *env) (*Result, error) {
	m := machine.Opteron()
	s, err := e.series("streamcluster", m, m.NumCores(), 1)
	if err != nil {
		return nil, err
	}
	hw := s.StallsPerCore(false, false)
	sw := s.StallsPerCore(true, false)
	corrHW, _ := stats.Pearson(hw, s.Times())
	corrSW, _ := stats.Pearson(sw, s.Times())
	tbl := &report.Table{
		Title:   "streamcluster on Opteron",
		Headers: []string{"cores", "time(s)", "hw stalls/core", "hw+sw stalls/core"},
	}
	for i, smp := range s.Samples {
		if smp.Cores%4 != 0 && smp.Cores != 1 {
			continue
		}
		tbl.AddRow(smp.Cores, report.Sec(smp.Seconds), hw[i], sw[i])
	}
	text := tbl.Render() + fmt.Sprintf(
		"\ncorrelation with execution time: hw-only %.2f, hw+sw %.2f (paper: 0.86 vs 0.98)\n",
		corrHW, corrSW)
	return &Result{Text: text}, nil
}

// fig15 reproduces Figure 15 (§5.4, the limitation): streamcluster's
// behaviour changes beyond 30 cores; predictions from 12 measured cores
// carry higher error than predictions from 24 measured cores.
func fig15(e *env) (*Result, error) {
	m := machine.Opteron()
	full, err := e.series("streamcluster", m, m.NumCores(), 1)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	var errs [2]float64
	for i, measCores := range []int{12, 24} {
		targets := coresFrom(measCores, 48)
		pred, err := e.predict("streamcluster", m, measCores, 1, targets, core.Options{UseSoftware: true})
		if err != nil {
			return nil, err
		}
		maxPct, meanPct, err := pred.Errors(full)
		if err != nil {
			return nil, err
		}
		errs[i] = maxPct
		tbl := &report.Table{
			Title:   fmt.Sprintf("(%c) measured on %d cores", 'a'+i, measCores),
			Headers: []string{"cores", "predicted(s)", "measured(s)"},
		}
		for _, smp := range full.Samples {
			if smp.Cores <= measCores || smp.Cores%4 != 0 {
				continue
			}
			p, _ := pred.TimeAt(smp.Cores)
			tbl.AddRow(smp.Cores, report.Sec(p), report.Sec(smp.Seconds))
		}
		sb.WriteString(tbl.Render())
		sb.WriteString(fmt.Sprintf("max error %.1f%%, mean %.1f%%\n\n", maxPct, meanPct))
	}
	sb.WriteString(fmt.Sprintf("24-core measurements cut the max error from %.1f%% to %.1f%%\n", errs[0], errs[1]))
	return &Result{Text: sb.String()}, nil
}

// fig16 reproduces Figure 16 (§5.5): on the two-socket Xeon20, single-socket
// measurements contain no NUMA effects; extending the measurement window
// past 10 cores captures them and improves the prediction.
func fig16(e *env) (*Result, error) {
	m := machine.Xeon20()
	var sb strings.Builder
	for _, name := range []string{"lock-based HT", "kmeans"} {
		sb.WriteString(fmt.Sprintf("%s on Xeon20:\n", name))
		for _, measCores := range []int{10, 14} {
			maxPct, meanPct, err := e.scored(name, m, measCores, core.Options{UseSoftware: usesSoftwareStalls(name)})
			if err != nil {
				return nil, err
			}
			sb.WriteString(fmt.Sprintf("  measured %2d cores -> max error %5.1f%%, mean %5.1f%%\n",
				measCores, maxPct, meanPct))
		}
		sb.WriteString("\n")
	}
	return &Result{Text: sb.String()}, nil
}
