package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The fit benchmark replays the paper's offline workflow, the windows
// TestReplayFitHashes pins and the replay-boot benchmark workload sends:
// every Table-4 app measured on one Xeon20 processor, predicted over the
// whole machine with residual-bootstrap bands.
const (
	fitBenchMachine   = "Xeon20"
	fitBenchScale     = 0.25
	fitBenchBootstrap = 100
	// fitBenchPasses replays every window this many times; a window's
	// seconds are its median pass.
	fitBenchPasses = 3
)

// fitBenchRow is one replayed window in BENCH_fit.json. Everything but
// Seconds and Allocs is deterministic.
type fitBenchRow struct {
	Workload string `json:"workload"`
	// Samples is the measured window's length, Targets the number of core
	// counts predicted.
	Samples int `json:"samples"`
	Targets int `json:"targets"`
	// Replicates counts the bootstrap replicates that produced a realistic
	// prediction.
	Replicates int `json:"replicates"`
	// Fits names the kernel selected for each fitted stall category, and
	// Factor the one selected for the scaling factor.
	Fits    map[string]string `json:"fits"`
	Factor  string            `json:"factor"`
	Seconds float64           `json:"seconds"`
	// Allocs is the heap allocations of one replay of the window.
	Allocs uint64 `json:"allocs"`
}

// fitBenchJSON is the BENCH_fit.json schema: the fit layer's time and
// allocations per replayed window, with no simulation in the timed part.
type fitBenchJSON struct {
	Machine    string        `json:"machine"`
	MeasCores  int           `json:"meas_cores"`
	Scale      float64       `json:"scale"`
	Bootstrap  int           `json:"bootstrap"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Windows    []fitBenchRow `json:"windows"`

	TotalSeconds float64 `json:"total_seconds"`
	// AllocsPerOp is the mean of the windows' Allocs: one op is one
	// replayed window.
	AllocsPerOp float64 `json:"allocs_per_op"`

	// BaselineTotalSeconds is the same replay's total on the fit layer as
	// it was before the change that regenerated the file (passed with
	// -baseline), measured on the same host with the two builds' runs
	// interleaved; zero when no baseline was supplied.
	BaselineTotalSeconds float64 `json:"baseline_total_seconds,omitempty"`
	SpeedupVsBaseline    float64 `json:"speedup_vs_baseline,omitempty"`
}

// runFitBench simulates the replay windows once, untimed, then times
// core.Predict with bootstrap bands on each of them and writes
// BENCH_fit.json (CI uploads it as an artifact).
func runFitBench(baseline float64, outDir string) error {
	mach, err := machine.Lookup(fitBenchMachine)
	if err != nil {
		return err
	}
	meas := sim.CoreRange(mach.OneProcessorCores())
	targets := sim.CoreRange(mach.NumCores())
	names := workloads.Table4Names()
	series := make([]*counters.Series, len(names))
	for i, name := range names {
		w, err := workloads.Lookup(name)
		if err != nil {
			return err
		}
		if series[i], err = sim.CollectSeries(w, mach, meas, fitBenchScale); err != nil {
			return err
		}
	}

	opt := core.Options{Bootstrap: fitBenchBootstrap}
	rows := make([]fitBenchRow, len(names))
	secs := make([][]float64, len(names))
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < fitBenchPasses; pass++ {
		for i, s := range series {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			p, err := core.Predict(s, targets, opt)
			sec := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", names[i], err)
			}
			secs[i] = append(secs[i], sec)
			// The last pass, warm, records the rest.
			if pass < fitBenchPasses-1 {
				continue
			}
			fits := make(map[string]string, len(p.CategoryFits))
			for cat, f := range p.CategoryFits {
				fits[cat] = f.Kernel.Name
			}
			rows[i] = fitBenchRow{
				Workload:   names[i],
				Samples:    len(s.Samples),
				Targets:    len(p.TargetCores),
				Replicates: p.Bootstraps,
				Fits:       fits,
				Factor:     p.FactorFit.Kernel.Name,
				Allocs:     ms1.Mallocs - ms0.Mallocs,
			}
		}
	}

	doc := fitBenchJSON{
		Machine:    mach.Name,
		MeasCores:  len(meas),
		Scale:      fitBenchScale,
		Bootstrap:  fitBenchBootstrap,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Windows:    rows,
	}
	var allocs uint64
	for i := range rows {
		sort.Float64s(secs[i])
		rows[i].Seconds = secs[i][len(secs[i])/2]
		doc.TotalSeconds += rows[i].Seconds
		allocs += rows[i].Allocs
	}
	doc.AllocsPerOp = float64(allocs) / float64(len(rows))
	if baseline > 0 {
		doc.BaselineTotalSeconds = baseline
		if doc.TotalSeconds > 0 {
			doc.SpeedupVsBaseline = baseline / doc.TotalSeconds
		}
	}

	path, err := writeBench(outDir, "BENCH_fit.json", doc)
	if err != nil {
		return err
	}
	fmt.Printf("fit bench: %d %s windows x %d replicates in %.2fs (%.0f allocs/op", len(rows), mach.Name,
		fitBenchBootstrap, doc.TotalSeconds, doc.AllocsPerOp)
	if doc.SpeedupVsBaseline > 0 {
		fmt.Printf(", %.2fx vs baseline %.2fs", doc.SpeedupVsBaseline, baseline)
	}
	fmt.Printf("); wrote %s\n", path)
	return nil
}
