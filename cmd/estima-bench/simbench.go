package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simBenchWorkloads is the engine benchmark set: a representative slice of
// the paper's applications covering the engine's distinct hot paths — STM
// retry storms (memcached, intruder), FP compute with hot-line accumulators
// (kmeans), lock handoff chains (streamcluster, lock-based HT) and embarrassing
// parallelism (blackscholes).
var simBenchWorkloads = []string{
	"memcached", "intruder", "kmeans", "streamcluster", "lock-based HT", "blackscholes",
}

// simBenchRow is one workload's cold-collection measurement in
// BENCH_sim.json.
type simBenchRow struct {
	Workload string `json:"workload"`
	// Runs is the number of independent simulation runs in the series
	// (one per core count of the schedule).
	Runs int `json:"runs"`
	// Ops is the total number of simulated operation elements across the
	// series — the work denominator of OpsPerSec and AllocsPerOp.
	Ops         int64   `json:"ops"`
	Seconds     float64 `json:"seconds"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// simBenchJSON is the BENCH_sim.json schema: cold CollectSeries throughput
// of the simulator on one machine's full 1..K schedule, per workload.
type simBenchJSON struct {
	Machine    string        `json:"machine"`
	MaxCores   int           `json:"max_cores"`
	Scale      float64       `json:"scale"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Workloads  []simBenchRow `json:"workloads"`

	TotalSeconds   float64 `json:"total_seconds"`
	TotalOpsPerSec float64 `json:"total_ops_per_sec"`

	// BaselineTotalSeconds is the same schedule's total on the engine as it
	// was before the change that regenerated the file (passed with
	// -baseline), measured on the same host with the two engines' runs
	// interleaved; zero when no baseline was supplied.
	BaselineTotalSeconds float64 `json:"baseline_total_seconds,omitempty"`
	SpeedupVsBaseline    float64 `json:"speedup_vs_baseline,omitempty"`
}

// runSimBench measures a cold CollectSeries of every benchmark workload on
// the machine's exhaustive 1..K core schedule and writes BENCH_sim.json (CI
// uploads it as an artifact). Each series is collected from scratch — no
// store, no fit memo — so the numbers isolate the simulation engine itself.
func runSimBench(machName string, scale, baseline float64, outDir string) error {
	mach, err := machine.Lookup(machName)
	if err != nil {
		return err
	}
	cores := sim.CoreRange(mach.NumCores())

	rows := make([]simBenchRow, 0, len(simBenchWorkloads))
	var totalSec float64
	var totalOps int64
	var ms0, ms1 runtime.MemStats
	for _, name := range simBenchWorkloads {
		w, err := workloads.Lookup(name)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if _, err := sim.CollectSeries(w, mach, cores, scale); err != nil {
			return err
		}
		sec := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)

		// The op count is recomputed outside the timed window: building the
		// programs is part of a collection's cost, counting them is not.
		var ops int64
		for _, c := range cores {
			n, err := sim.CountOps(w, mach, c, scale)
			if err != nil {
				return err
			}
			ops += n
		}

		row := simBenchRow{
			Workload: name,
			Runs:     len(cores),
			Ops:      ops,
			Seconds:  sec,
		}
		if sec > 0 {
			row.RunsPerSec = float64(len(cores)) / sec
			row.OpsPerSec = float64(ops) / sec
		}
		if ops > 0 {
			row.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
		}
		rows = append(rows, row)
		totalSec += sec
		totalOps += ops
	}

	doc := simBenchJSON{
		Machine:      mach.Name,
		MaxCores:     mach.NumCores(),
		Scale:        scale,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workloads:    rows,
		TotalSeconds: totalSec,
	}
	if totalSec > 0 {
		doc.TotalOpsPerSec = float64(totalOps) / totalSec
	}
	if baseline > 0 {
		doc.BaselineTotalSeconds = baseline
		if totalSec > 0 {
			doc.SpeedupVsBaseline = baseline / totalSec
		}
	}

	path, err := writeBench(outDir, "BENCH_sim.json", doc)
	if err != nil {
		return err
	}
	fmt.Printf("sim bench: %s 1..%d x %d workloads in %.2fs (%.2fM ops/s", mach.Name,
		mach.NumCores(), len(rows), totalSec, doc.TotalOpsPerSec/1e6)
	if doc.SpeedupVsBaseline > 0 {
		fmt.Printf(", %.2fx vs baseline %.2fs", doc.SpeedupVsBaseline, baseline)
	}
	fmt.Printf("); wrote %s\n", path)
	return nil
}
