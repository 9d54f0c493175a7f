package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/spec"
)

// cmdSweep runs the full ESTIMA pipeline over every requested
// workload × machine pair through the service's sweep planner: measure on
// one processor (cached in -cache when set), extrapolate to the full
// machine, and summarize the predictions as a table, CSV or JSON — or
// stream them as NDJSON, one line per finished cell in deterministic plan
// order plus a final summary record (the same lines
// POST /v1/sweep?stream=ndjson serves).
func cmdSweep(ctx context.Context, args []string) error {
	fs := newFlagSet("sweep")
	wlSpec := fs.String("w", "", "comma-separated workloads (default: the paper's Table 4 set)")
	machSpec := fs.String("m", "", "comma-separated machines (default: all presets)")
	measCores := fs.Int("meascores", 0, "cores to measure on (default: one processor of each machine)")
	scale := fs.Float64("scale", 1, "dataset scale factor")
	soft := fs.Bool("soft", false, "use software stalled cycles")
	workers := fs.Int("workers", 0, "worker pool size (default: NumCPU)")
	format := fs.String("format", "table", "output format: table, csv, json or ndjson (streamed)")
	cacheDir := fs.String("cache", "", "measurement store directory, reused across runs")
	boot := fs.Int("boot", 0, "residual-bootstrap resamples for confidence bands (0 = off, at most 10000)")
	ci := fs.Float64("ci", core.DefaultCILevel, "two-sided confidence level (%) of the -boot bands")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch *format {
	case "table", "csv", "json", "ndjson":
	default:
		return fmt.Errorf("unknown format %q (want table, csv, json or ndjson)", *format)
	}
	if *boot > 0 && !(*ci > 0 && *ci < 100) {
		return fmt.Errorf("-ci %g out of range (0, 100)", *ci)
	}
	req := service.SweepRequest{
		MeasCores: *measCores,
		Scale:     *scale,
		Soft:      *soft,
		Workers:   *workers,
		Bootstrap: *boot,
		CILevel:   *ci,
	}
	// Spec-aware splitting: a comma followed by key=value continues the
	// preceding spec's parameter list, so grids like
	// -w 'memcached?skew=1.5,skew=3' survive the comma-separated flag.
	if *wlSpec != "" {
		req.Workloads = spec.SplitList(*wlSpec)
	}
	if *machSpec != "" {
		req.Machines = spec.SplitList(*machSpec)
	}
	// -workers bounds the job pool AND the service's simulation semaphore,
	// so it throttles total CPU exactly as it did pre-service.
	svc, err := newService(*cacheDir, *workers)
	if err != nil {
		return err
	}
	if *format == "ndjson" {
		enc := json.NewEncoder(os.Stdout)
		sum, err := svc.SweepStream(ctx, req, func(c service.SweepCell) error {
			return enc.Encode(service.SweepStreamLine{Cell: &c})
		})
		if err != nil {
			return err
		}
		if err := enc.Encode(service.SweepStreamLine{Summary: sum}); err != nil {
			return err
		}
		if sum.Failures > 0 {
			return fmt.Errorf("%d of %d predictions failed", sum.Failures, sum.Cells)
		}
		return nil
	}
	resp, err := svc.Sweep(ctx, req)
	if err != nil {
		return err
	}

	tbl := &report.Table{
		Title: fmt.Sprintf("prediction sweep (%d workloads x %d machines, scale %g)",
			len(resp.Workloads), len(resp.Machines), *scale),
		Headers: []string{"workload", "machine", "meas", "target", "stop", "t(full)s", "cache", "status"},
	}
	if *boot > 0 {
		tbl.Title = fmt.Sprintf("prediction sweep (%d workloads x %d machines, scale %g, %d resamples at %g%% CI)",
			len(resp.Workloads), len(resp.Machines), *scale, *boot, *ci)
		tbl.Headers = []string{"workload", "machine", "meas", "target", "stop",
			"t(full)lo", "t(full)s", "t(full)hi", "cache", "status"}
	}
	for _, c := range resp.Cells {
		if c.Error != "" {
			row := []any{c.Workload, c.Machine, c.MeasCores, c.TargetCores, "-"}
			if *boot > 0 {
				row = append(row, "-", "-", "-")
			} else {
				row = append(row, "-")
			}
			tbl.AddRow(append(row, cacheMark(c.CacheHit), c.Error)...)
			continue
		}
		row := []any{c.Workload, c.Machine, c.MeasCores, c.TargetCores, c.Stop}
		if *boot > 0 {
			row = append(row, report.Band{Lo: c.TimeLo, Est: c.TimeFull, Hi: c.TimeHi, Format: report.Sec})
		} else {
			row = append(row, report.Sec(c.TimeFull))
		}
		tbl.AddRow(append(row, cacheMark(c.CacheHit), "ok")...)
	}
	switch *format {
	case "csv":
		fmt.Print(tbl.CSV())
	case "json":
		data, err := tbl.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	default:
		fmt.Print(tbl.Render())
	}
	if resp.Failures > 0 {
		return fmt.Errorf("%d of %d predictions failed", resp.Failures, len(resp.Cells))
	}
	return nil
}

func cacheMark(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
