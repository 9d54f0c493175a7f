package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/service"
)

// exploreBenchRegion is the reference region the explore bench covers: a
// 6×4 memcached grid (hot-key skew × write percentage) on one machine —
// large enough that budgeted sampling has room to save, small enough that
// CI finishes in seconds at -scale 0.05.
const exploreBenchRegion = "memcached?skew=1,skew=1.5,skew=2,skew=3,skew=4,skew=6," +
	"setpct=0,setpct=10,setpct=25,setpct=50"

// exploreBenchJSON is the BENCH_explore.json schema: how much of the full
// grid the budgeted planner actually simulated, whether it hit the target
// band everywhere it estimated, and the wall-clock comparison against an
// exhaustive sweep of the identical region on a second cold service.
type exploreBenchJSON struct {
	Workload string  `json:"workload"`
	Machine  string  `json:"machine"`
	Scale    float64 `json:"scale"`
	Region   int     `json:"region"`
	Budget   int     `json:"budget"`
	// SimsUsed / FullGridSims is the headline ratio CI gates on.
	SimsUsed     int     `json:"sims_used"`
	FullGridSims int     `json:"full_grid_sims"`
	SavingsPct   float64 `json:"savings_pct"`
	// TargetBandPct is the requested band; AchievedBandPct the widest
	// estimated band left; TargetMet that every estimate is within target.
	TargetBandPct   float64 `json:"target_band_pct"`
	AchievedBandPct float64 `json:"achieved_band_pct"`
	TargetMet       bool    `json:"target_met"`
	Rounds          int     `json:"rounds"`
	Failures        int     `json:"failures"`
	ExploreSeconds  float64 `json:"explore_seconds"`
	FullGridSeconds float64 `json:"full_grid_seconds"`
	Speedup         float64 `json:"speedup"`
}

// runExploreBench explores the reference region on one cold service, sweeps
// the identical region exhaustively on another cold service (same bootstrap,
// so the comparison is honest), and writes BENCH_explore.json (CI gates on
// the savings ratio and uploads it as an artifact).
func runExploreBench(ctx context.Context, scale float64, outDir string) error {
	exploreSvc, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := exploreSvc.Explore(ctx, service.ExploreRequest{
		Workload: exploreBenchRegion,
		Machine:  "Haswell",
		Scale:    scale,
	})
	if err != nil {
		return err
	}
	exploreSec := time.Since(start).Seconds()

	sweepSvc, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	start = time.Now()
	sum, err := sweepSvc.SweepStream(ctx, service.SweepRequest{
		Workloads: []string{exploreBenchRegion},
		Machines:  []string{"Haswell"},
		Scale:     scale,
		Bootstrap: resp.Bootstrap,
	}, func(service.SweepCell) error { return nil })
	if err != nil {
		return err
	}
	fullSec := time.Since(start).Seconds()
	if sum.Cells != resp.FullGridSims {
		return fmt.Errorf("full sweep ran %d cells, explore reports a %d-cell grid", sum.Cells, resp.FullGridSims)
	}

	doc := exploreBenchJSON{
		Workload:        resp.Workload,
		Machine:         resp.Machine,
		Scale:           scale,
		Region:          resp.Region,
		Budget:          resp.Budget,
		SimsUsed:        resp.SimsUsed,
		FullGridSims:    resp.FullGridSims,
		TargetBandPct:   resp.TargetBandPct,
		AchievedBandPct: resp.AchievedBandPct,
		TargetMet:       resp.TargetMet,
		Rounds:          len(resp.Rounds),
		Failures:        resp.Failures,
		ExploreSeconds:  exploreSec,
		FullGridSeconds: fullSec,
	}
	if resp.FullGridSims > 0 {
		doc.SavingsPct = 100 * float64(resp.FullGridSims-resp.SimsUsed) / float64(resp.FullGridSims)
	}
	if exploreSec > 0 {
		doc.Speedup = fullSec / exploreSec
	}
	path, err := writeBench(outDir, "BENCH_explore.json", doc)
	if err != nil {
		return err
	}
	fmt.Printf("explore bench: %d of %d cells simulated (%.0f%% saved, target met: %t) in %.2fs vs full grid %.2fs (%.1fx); wrote %s\n",
		doc.SimsUsed, doc.FullGridSims, doc.SavingsPct, doc.TargetMet, doc.ExploreSeconds, doc.FullGridSeconds, doc.Speedup, path)
	return nil
}
