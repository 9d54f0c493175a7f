package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// cmdPredict runs the full ESTIMA pipeline through the service facade:
// measure the workload on the measurement machine up to -meascores (or
// replay a series collected earlier with 'collect -o' via -from),
// extrapolate to the target machine, and (optionally) compare against the
// target machine's actual behaviour.
func cmdPredict(ctx context.Context, args []string) error {
	fs := newFlagSet("predict")
	workload := fs.String("w", "", "workload name")
	measMach := fs.String("m", "Opteron", "measurement machine")
	measCores := fs.Int("meascores", 0, "cores to measure on (default: one processor)")
	targetMach := fs.String("target", "", "target machine (default: same as -m)")
	from := fs.String("from", "", "load the measured series from this JSON file instead of simulating")
	useSoft := fs.Bool("soft", false, "use software stalled cycles")
	checkpoints := fs.Int("c", 2, "checkpoint count for function selection")
	dataScale := fs.Float64("datascale", 1, "weak-scaling dataset factor for the target")
	scale := fs.Float64("scale", 1, "dataset scale of the runs")
	compare := fs.Bool("compare", true, "also measure the target machine and report errors")
	boot := fs.Int("boot", 0, "residual-bootstrap resamples for confidence bands (0 = off, at most 10000)")
	ci := fs.Float64("ci", core.DefaultCILevel, "two-sided confidence level (%) of the -boot bands")
	cacheDir := fs.String("cache", "", "measurement store directory, reused across runs")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *boot > 0 && !(*ci > 0 && *ci < 100) {
		return fmt.Errorf("-ci %g out of range (0, 100)", *ci)
	}
	req := service.PredictRequest{
		Workload:    *workload,
		Machine:     *measMach,
		MeasCores:   *measCores,
		Target:      *targetMach,
		Scale:       *scale,
		DataScale:   *dataScale,
		Soft:        *useSoft,
		Checkpoints: *checkpoints,
		Bootstrap:   *boot,
		CILevel:     *ci,
		// Comparison runs as its own Collect request below, so its
		// progress line can print before that expensive measurement
		// starts, not after it already finished.
		Compare: false,
	}
	if *from != "" {
		data, err := os.ReadFile(*from)
		if err != nil {
			return err
		}
		// Decode locally only to announce the load up front; the service
		// re-validates the same document.
		loaded, err := counters.DecodeSeries(data)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d samples of %s on %s from %s\n",
			len(loaded.Samples), loaded.Workload, loaded.Machine, *from)
		if loaded.Scale <= 0 && *compare {
			fmt.Printf("series records no dataset scale; -compare will measure at scale %g\n", *scale)
		}
		req.Series = data
		req.Workload, req.Machine = "", ""
	} else {
		// Announce the measurement before the expensive work starts; the
		// resolution mirrors the service's own (same Lookup, same errors).
		w, err := workloads.Lookup(*workload)
		if err != nil {
			return err
		}
		mm, err := machine.Lookup(*measMach)
		if err != nil {
			return err
		}
		if *compare {
			// The comparison below runs after the window is simulated;
			// reject its scale first.
			if _, err := service.CompareScale(*scale, *dataScale); err != nil {
				return err
			}
		}
		fmt.Printf("measuring %s on %s (1..%d cores)...\n", w.Name(), mm.Name, mm.WindowCores(*measCores))
	}
	svc, err := newService(*cacheDir, 0)
	if err != nil {
		return err
	}
	resp, err := svc.Predict(ctx, req)
	if err != nil {
		return err
	}
	renderPredictHead(resp, *boot)

	// The comparison phase — the expensive full-machine measurement ESTIMA
	// exists to avoid — is its own service request, announced first.
	var actual []float64
	if *compare && !resp.WorkloadKnown {
		fmt.Printf("series workload %q is not a registered workload; skipping -compare\n", resp.Workload)
	} else if *compare {
		cmpScale, err := service.CompareScale(resp.Scale, *dataScale)
		if err != nil {
			return err
		}
		fmt.Printf("measuring actual behaviour on %s (this is the expensive step ESTIMA avoids)...\n", resp.Target)
		act, err := svc.Collect(ctx, service.CollectRequest{
			Workload: resp.Workload,
			Machine:  resp.Target,
			Scale:    cmpScale,
		})
		if err != nil {
			return err
		}
		actual = act.Decoded.Times()
	}
	renderPredictTable(resp, actual)
	return nil
}

// renderPredictHead prints the warnings and fit-selection section exactly
// as the pre-service CLI did — the golden tests in golden_test.go hold the
// full output to byte identity.
func renderPredictHead(resp *service.PredictResponse, boot int) {
	if resp.CacheHit {
		fmt.Printf("replayed the measurement series from %s\n", resp.StoreDir)
	}
	if !resp.MachineKnown {
		fmt.Printf("series machine %q has no preset frequency; predictions are not frequency-scaled to %s\n",
			resp.Machine, resp.Target)
	}

	fmt.Printf("\nselected extrapolation functions:\n")
	cats := make([]string, 0, len(resp.CategoryFits))
	for cat := range resp.CategoryFits {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		if resp.Stability != nil {
			fmt.Printf("  %-14s %s  stability %.2f\n", cat, resp.CategoryFits[cat], resp.Stability[cat])
			continue
		}
		fmt.Printf("  %-14s %s\n", cat, resp.CategoryFits[cat])
	}
	if resp.Stability != nil {
		fmt.Printf("  %-14s %s (scaling factor)  stability %.2f\n", "factor", resp.FactorFit, resp.FactorStability)
		fmt.Printf("\nbootstrap: %d/%d realistic resamples, %.0f%% confidence bands\n",
			resp.Bootstraps, boot, resp.CILevel)
	} else {
		fmt.Printf("  %-14s %s (scaling factor)\n", "factor", resp.FactorFit)
	}
	fmt.Printf("\npredicted scaling stop: %d cores\n\n", resp.ScalingStop)
}

// renderPredictTable prints the per-core prediction table; actual is the
// target machine's measured times (nil without -compare).
func renderPredictTable(resp *service.PredictResponse, actual []float64) {
	tbl := &report.Table{}
	if resp.TimeLo != nil {
		tbl.Headers = []string{"cores", "lo(s)", "predicted(s)", "hi(s)", "actual(s)", "err%"}
	} else {
		tbl.Headers = []string{"cores", "predicted(s)", "actual(s)", "err%"}
	}
	for i, c := range resp.TargetCores {
		row := []any{c}
		if resp.TimeLo != nil {
			row = append(row, report.Band{Lo: resp.TimeLo[i], Est: resp.Time[i],
				Hi: resp.TimeHi[i], Format: report.Sec})
		} else {
			row = append(row, report.Sec(resp.Time[i]))
		}
		if actual != nil {
			row = append(row, report.Sec(actual[i]), report.Pct(stats.AbsPctErr(resp.Time[i], actual[i])))
		} else {
			row = append(row, "-", "-")
		}
		tbl.AddRow(row...)
	}
	fmt.Print(tbl.Render())
}

// cmdBottleneck reports the predicted dominant stall categories and their
// code sites (paper §4.6). It measures through the service, which validates
// the names, cores and scale and memoizes the samples, and runs the core
// pipeline on the decoded series, since it needs the raw Prediction.
func cmdBottleneck(ctx context.Context, args []string) error {
	fs := newFlagSet("bottleneck")
	workload := fs.String("w", "", "workload name")
	measMach := fs.String("m", "Opteron", "measurement machine")
	measCores := fs.Int("meascores", 0, "cores to measure on (default: one processor)")
	scale := fs.Float64("scale", 1, "dataset scale")
	topN := fs.Int("top", 3, "sites per category")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	mm, err := machine.Lookup(*measMach)
	if err != nil {
		return err
	}
	*measCores = mm.WindowCores(*measCores)
	svc, err := newService("", 0)
	if err != nil {
		return err
	}
	resp, err := svc.Collect(ctx, service.CollectRequest{
		Workload: *workload,
		Machine:  *measMach,
		Cores:    fmt.Sprintf("1-%d", *measCores),
		Scale:    *scale,
	})
	if err != nil {
		return err
	}
	measured := resp.Decoded
	pred, err := core.PredictContext(ctx, measured, sim.CoreRange(mm.NumCores()), core.Options{UseSoftware: true})
	if err != nil {
		return err
	}
	bns, err := pred.Bottlenecks(measured, *topN)
	if err != nil {
		return err
	}
	fmt.Printf("predicted stall categories at %d cores (measured on %d):\n", mm.NumCores(), *measCores)
	for _, b := range bns {
		fmt.Printf("  %-14s %6.1f%% of stalls  growth %5.1fx\n", b.Category, 100*b.ShareOfTotal, b.Growth)
		for _, s := range b.TopSites {
			fmt.Printf("      %5.1f%%  %s\n", 100*s.Share, s.Site)
		}
	}
	return nil
}
