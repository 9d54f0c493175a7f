package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/service"
)

// cmdDiagnose explains a scenario's predicted scaling behaviour through the
// service facade: per-category stall shares at each target core count, the
// crossover points where the dominant bottleneck changes, the category whose
// growth kills scaling at max cores, and the workload's own schema knob that
// could relieve it. -format json prints the exact /v1/diagnose response body,
// byte for byte, so shell pipelines and the HTTP API can be diffed directly.
func cmdDiagnose(ctx context.Context, args []string) error {
	fs := newFlagSet("diagnose")
	workload := fs.String("w", "", "workload name")
	measMach := fs.String("m", "Opteron", "measurement machine")
	measCores := fs.Int("meascores", 0, "cores to measure on (default: one processor)")
	targetMach := fs.String("target", "", "target machine (default: same as -m)")
	useSoft := fs.Bool("soft", false, "use software stalled cycles")
	checkpoints := fs.Int("c", 2, "checkpoint count for function selection")
	scale := fs.Float64("scale", 1, "dataset scale of the runs")
	format := fs.String("format", "table", "output format: table or json")
	cacheDir := fs.String("cache", "", "measurement store directory, reused across runs")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *format != "table" && *format != "json" {
		return fmt.Errorf("-format %q: must be table or json", *format)
	}
	svc, err := newService(*cacheDir, 0)
	if err != nil {
		return err
	}
	resp, err := svc.Diagnose(ctx, service.DiagnoseRequest{
		Workload:    *workload,
		Machine:     *measMach,
		MeasCores:   *measCores,
		Target:      *targetMach,
		Scale:       *scale,
		Soft:        *useSoft,
		Checkpoints: *checkpoints,
	})
	if err != nil {
		return err
	}
	if *format == "json" {
		// Exactly the HTTP response body, so 'estima diagnose -format json'
		// and 'curl /v1/diagnose' are byte-identical (CI cmp's them).
		return service.EncodeJSON(os.Stdout, resp)
	}
	renderDiagnose(resp)
	return nil
}

// renderDiagnose prints the human table form; the goldens in golden_test.go
// hold it to byte identity.
func renderDiagnose(resp *service.DiagnoseResponse) {
	if resp.CacheHit {
		fmt.Println("replayed the measurement series from the store")
	}
	fmt.Printf("diagnosis: %s on %s (measured 1..%d cores on %s, scale %g)\n\n",
		resp.Workload, resp.Target, resp.MeasCores, resp.Machine, resp.Scale)

	last := len(resp.TargetCores) - 1
	tbl := &report.Table{Headers: []string{"category", "class", "fit", "growth", "p",
		fmt.Sprintf("share@%d", resp.TargetCores[last])}}
	for _, c := range resp.Categories {
		tbl.AddRow(c.Category, c.Class, c.Fit, c.Growth,
			fmt.Sprintf("%.3f", c.GrowthExponent),
			fmt.Sprintf("%.2f%%", c.SharePct[last]))
	}
	fmt.Print(tbl.Render())

	fmt.Printf("\ndominant bottleneck by core count:\n")
	for _, run := range dominantRuns(resp) {
		fmt.Printf("  %-12s %s\n", run.span, run.category)
	}
	for _, x := range resp.Crossovers {
		fmt.Printf("crossover: at %d cores dominance shifts from %s to %s\n", x.Cores, x.From, x.To)
	}
	fmt.Printf("\npredicted scaling stop: %d cores\n", resp.ScalingStop)
	if resp.Relief != nil {
		verb := "lower"
		if resp.Relief.Action == "raise" {
			verb = "raise"
		}
		fmt.Printf("relief: %s `%s` (default %s, ~%.2f%% of stalls addressable): %s\n",
			verb, resp.Relief.Param, resp.Relief.Default, resp.Relief.DeltaPct, resp.Relief.Help)
	}
	fmt.Printf("verdict: %s\n", resp.Summary)
}

// dominantRun is one maximal stretch of core counts sharing a dominant
// category, e.g. {"1-10 cores", "compute"}.
type dominantRun struct {
	span     string
	category string
}

// dominantRuns compresses the per-core dominant list into contiguous runs.
func dominantRuns(resp *service.DiagnoseResponse) []dominantRun {
	var runs []dominantRun
	start := 0
	flush := func(end int) {
		span := fmt.Sprintf("%d-%d cores", resp.TargetCores[start], resp.TargetCores[end])
		if start == end {
			span = fmt.Sprintf("%d cores", resp.TargetCores[start])
		}
		runs = append(runs, dominantRun{span: span, category: resp.Dominant[start]})
	}
	for i := 1; i < len(resp.Dominant); i++ {
		if resp.Dominant[i] != resp.Dominant[i-1] {
			flush(i - 1)
			start = i
		}
	}
	flush(len(resp.Dominant) - 1)
	return runs
}
