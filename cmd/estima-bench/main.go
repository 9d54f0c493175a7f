// Command estima-bench regenerates the paper's tables and figures (and the
// ablation-* experiments, listed with -list) on the simulated machines,
// printing each experiment's rows and optionally writing them under a
// results directory.
//
//estima:timing reports per-experiment wall-clock durations in its progress output
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
)

// main only converts run's status into an exit code: os.Exit skips deferred
// functions, and the profile flags rely on defers to flush their files.
func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment id (fig1..fig16, table4..table7, ablation-*) or 'all'")
	scale := flag.Float64("scale", 1, "dataset scale factor")
	outDir := flag.String("out", "", "directory to write per-experiment .txt files (optional)")
	cacheDir := flag.String("cache", "", "measurement store directory, reused across runs")
	list := flag.Bool("list", false, "list experiment ids and exit")
	sweepBench := flag.Bool("sweepbench", false,
		"measure a cold vs warm prediction sweep through the planner and write BENCH_sweep.json (to -out, or the working directory)")
	exploreBench := flag.Bool("explorebench", false,
		"measure budgeted exploration of a reference parameter region against an exhaustive sweep and write BENCH_explore.json (to -out, or the working directory)")
	simBench := flag.Bool("simbench", false,
		"measure cold CollectSeries throughput of the simulation engine and write BENCH_sim.json (to -out, or the working directory)")
	simMachine := flag.String("simmachine", "Xeon20", "machine preset the -simbench schedule runs on")
	fitBench := flag.Bool("fitbench", false,
		"replay the Table-4 apps' one-processor Xeon20 windows with bootstrap bands through the fit layer and write BENCH_fit.json (to -out, or the working directory)")
	baseline := flag.Float64("baseline", 0,
		"reference total seconds that -simbench or -fitbench records as baseline_total_seconds (a prior build's total of the same mode on the same host)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile reflects retained allocation
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-22s %s\n", id, experiments.Title(id))
		}
		return 0
	}
	// Every mode below measures at -scale, and each resolves it by the
	// simulator's scale rule; checking it here with the same rule rejects
	// a non-finite scale once, before any mode starts work or prints.
	if _, err := sim.ResolveScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
		return 1
	}
	if *sweepBench {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runSweepBench(ctx, *scale, *cacheDir, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *exploreBench {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runExploreBench(ctx, *scale, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *simBench {
		if err := runSimBench(*simMachine, *scale, *baseline, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *fitBench {
		if err := runFitBench(*baseline, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			return 1
		}
		return 0
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := experiments.Config{Scale: *scale, CacheDir: *cacheDir}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(ctx, id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
			failed++
			continue
		}
		header := fmt.Sprintf("== %s: %s [%.1fs]\n", res.ID, res.Title, time.Since(start).Seconds())
		fmt.Print(header, res.Text, "\n")
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
				return 1
			}
			path := filepath.Join(*outDir, res.ID+".txt")
			if err := os.WriteFile(path, []byte(header+res.Text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "estima-bench: %v\n", err)
				return 1
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// sweepBenchJSON is the BENCH_sweep.json schema: the planner's cold/warm
// cost model on one representative matrix — wall time and fit counts for a
// cold sweep (every distinct cell collects and fits) and the identical warm
// re-sweep (every cell answered from the fitted-model memo).
type sweepBenchJSON struct {
	Workloads int `json:"workloads"`
	Machines  int `json:"machines"`
	Cells     int `json:"cells"`
	// Failures counts cells whose prediction legitimately fails (the fit
	// finds no valid approximation). Failed fits are never memoized — a
	// transient failure must not poison the cache — so each failing cell
	// refits once per sweep: WarmFits == Failures on a healthy run.
	Failures       int     `json:"failures"`
	Scale          float64 `json:"scale"`
	DistinctSeries int     `json:"distinct_series"`
	DistinctFits   int     `json:"distinct_fits"`
	ColdSeconds    float64 `json:"cold_seconds"`
	WarmSeconds    float64 `json:"warm_seconds"`
	Speedup        float64 `json:"speedup"`
	ColdFits       int64   `json:"cold_fits"`
	WarmFits       int64   `json:"warm_fits"`
	ColdMemoHits   int64   `json:"cold_memo_hits"`
	WarmMemoHits   int64   `json:"warm_memo_hits"`
}

// runSweepBench runs the paper's Table 4 workload set over two machines
// through one service, cold then warm, and writes the measurements as
// BENCH_sweep.json (CI uploads it as an artifact).
func runSweepBench(ctx context.Context, scale float64, cacheDir, outDir string) error {
	svc, err := service.New(service.Config{CacheDir: cacheDir})
	if err != nil {
		return err
	}
	req := service.SweepRequest{Machines: []string{"Opteron", "Xeon20"}, Scale: scale}

	run := func() (*service.SweepSummary, float64, error) {
		start := time.Now()
		sum, err := svc.SweepStream(ctx, req, func(service.SweepCell) error { return nil })
		return sum, time.Since(start).Seconds(), err
	}
	sum, coldSec, err := run()
	if err != nil {
		return err
	}
	coldFits, coldHits := svc.FitCacheStats()
	_, warmSec, err := run()
	if err != nil {
		return err
	}
	warmFits, warmHits := svc.FitCacheStats()

	doc := sweepBenchJSON{
		Workloads:      len(sum.Workloads),
		Machines:       len(sum.Machines),
		Cells:          sum.Cells,
		Failures:       sum.Failures,
		Scale:          scale,
		DistinctSeries: sum.DistinctSeries,
		DistinctFits:   sum.DistinctFits,
		ColdSeconds:    coldSec,
		WarmSeconds:    warmSec,
		ColdFits:       coldFits,
		WarmFits:       warmFits - coldFits,
		ColdMemoHits:   coldHits,
		WarmMemoHits:   warmHits - coldHits,
	}
	if warmSec > 0 {
		doc.Speedup = coldSec / warmSec
	}
	path, err := writeBench(outDir, "BENCH_sweep.json", doc)
	if err != nil {
		return err
	}
	fmt.Printf("sweep bench: %d cells cold %.2fs (%d fits) -> warm %.3fs (%d fits, %.0fx); wrote %s\n",
		doc.Cells, doc.ColdSeconds, doc.ColdFits, doc.WarmSeconds, doc.WarmFits, doc.Speedup, path)
	return nil
}

// writeBench writes doc as dir/name ("" means the working directory):
// two-space indented JSON with a trailing newline, the format the CI jq
// gates read. It returns the written path.
func writeBench(dir, name string, doc any) (string, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
