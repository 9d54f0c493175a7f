package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/service"
)

// cmdExplore covers a spec region with a fraction of the simulations: it
// feeds the flags into the service's budgeted active-sampling planner
// (farthest-point seeding, bootstrap-band acquisition, inverse-distance
// estimates for the unmeasured remainder) and prints the whole region —
// measured and estimated cells alike — in deterministic grid order.
// -format json prints the exact /v1/explore response body, byte for byte.
func cmdExplore(ctx context.Context, args []string) error {
	fs := newFlagSet("explore")
	workload := fs.String("w", "", "workload region spec (repeated keys span the grid, e.g. 'memcached?skew=1.5,skew=3,setpct=0,setpct=20')")
	measMach := fs.String("m", "Opteron", "measurement machine")
	measCores := fs.Int("meascores", 0, "cores to measure on (default: one processor)")
	scale := fs.Float64("scale", 1, "dataset scale of the runs")
	soft := fs.Bool("soft", false, "use software stalled cycles")
	budget := fs.Int("budget", 0, "simulation budget in cells (default: half the region, rounded up)")
	targetBand := fs.Float64("band", 0, "target relative band width in percent (default 10)")
	roundSize := fs.Int("round", 0, "cells simulated per refinement round (default 4)")
	boot := fs.Int("boot", 0, "residual-bootstrap resamples per cell (default 25, at most 10000; bands are the acquisition signal, so 0 keeps the default)")
	ci := fs.Float64("ci", 0, "two-sided confidence level (%) of the bands (default 90)")
	seed := fs.Int64("seed", 0, "bootstrap seed (0 = default stream)")
	workers := fs.Int("workers", 0, "parallel cells per round (default: NumCPU)")
	format := fs.String("format", "table", "output format: table or json")
	cacheDir := fs.String("cache", "", "measurement store directory, reused across runs")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *format != "table" && *format != "json" {
		return fmt.Errorf("-format %q: must be table or json", *format)
	}
	svc, err := newService(*cacheDir, *workers)
	if err != nil {
		return err
	}
	resp, err := svc.Explore(ctx, service.ExploreRequest{
		Workload:      *workload,
		Machine:       *measMach,
		MeasCores:     *measCores,
		Scale:         *scale,
		Soft:          *soft,
		Budget:        *budget,
		TargetBandPct: *targetBand,
		RoundSize:     *roundSize,
		Bootstrap:     *boot,
		CILevel:       *ci,
		Seed:          *seed,
		Workers:       *workers,
	})
	if err != nil {
		return err
	}
	if *format == "json" {
		// Exactly the HTTP response body, so 'estima explore -format json'
		// and 'curl /v1/explore' are byte-identical.
		if err := service.EncodeJSON(os.Stdout, resp); err != nil {
			return err
		}
	} else {
		renderExplore(resp)
	}
	if resp.Failures > 0 {
		return fmt.Errorf("%d of %d region cells failed", resp.Failures, len(resp.Cells))
	}
	return nil
}

// renderExplore prints the human table form; the goldens in golden_test.go
// hold it to byte identity.
func renderExplore(resp *service.ExploreResponse) {
	fmt.Printf("explore: %s on %s (measured 1..%d cores, scale %g)\n",
		resp.Workload, resp.Machine, resp.MeasCores, resp.Scale)
	fmt.Printf("budget: %d of %d cells simulated (full sweep: %d), %d resamples at %g%% CI\n\n",
		resp.SimsUsed, resp.Region, resp.FullGridSims, resp.Bootstrap, resp.CILevel)

	tbl := &report.Table{Headers: []string{"workload", "kind", "round", "source",
		"t(full)lo", "t(full)s", "t(full)hi", "band%", "status"}}
	for _, c := range resp.Cells {
		if c.Error != "" {
			kind := "estimate"
			if c.Measured {
				kind = "measured"
			}
			tbl.AddRow(c.Workload, kind, "-", "-", "-", "-", "-", "-", c.Error)
			continue
		}
		if c.Measured {
			tbl.AddRow(c.Workload, "measured", c.Round, "-",
				report.Sec(c.TimeLo), report.Sec(c.TimeFull), report.Sec(c.TimeHi),
				fmt.Sprintf("%.2f", c.BandPct), "ok")
			continue
		}
		tbl.AddRow(c.Workload, "estimate", "-", c.Source,
			report.Sec(c.TimeLo), report.Sec(c.TimeFull), report.Sec(c.TimeHi),
			fmt.Sprintf("%.2f", c.BandPct), "ok")
	}
	fmt.Print(tbl.Render())

	fmt.Printf("\nrounds:\n")
	for _, r := range resp.Rounds {
		trigger := "farthest-point seed"
		if r.Round > 1 {
			trigger = fmt.Sprintf("widest estimated band %.2f%%", r.MaxEstBandPct)
		}
		fmt.Printf("  round %d (%s): %d cells\n", r.Round, trigger, len(r.Simulated))
	}
	verdict := "met"
	if !resp.TargetMet {
		verdict = "NOT met"
	}
	fmt.Printf("target band <= %g%%: %s (widest remaining estimate %.2f%%)\n",
		resp.TargetBandPct, verdict, resp.AchievedBandPct)
}
