// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per experiment, backed by
// internal/experiments). The benchmarks run each experiment at a reduced
// dataset scale so `go test -bench=.` completes in minutes; run
// `go run ./cmd/estima-bench -exp all` for the full-scale outputs
// (`estima-bench -list` names every experiment, and the README shows how to
// run them). Each benchmark reports the experiment's wall time per
// regeneration; on the first iteration it also logs the produced rows.
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// benchScale trades fidelity for bench runtime; the curves keep their shape.
const benchScale = 0.25

var logOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, experiments.Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if _, done := logOnce.LoadOrStore(id, true); !done {
			b.Logf("%s: %s\n%s", res.ID, res.Title, res.Text)
		}
	}
}

func BenchmarkFig1TimeExtrapolationKmeans(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2StallTimeCorrelation(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig5IntruderExample(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6Production(b *testing.B)                { benchExperiment(b, "fig6") }
func BenchmarkFig7EstimaVsTimeExtrapolation(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8PredictionCurves(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9WeakScaling(b *testing.B)               { benchExperiment(b, "fig9") }
func BenchmarkFig10Bottlenecks(b *testing.B)              { benchExperiment(b, "fig10") }
func BenchmarkFig11BottleneckFixes(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12MicrobenchCurves(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13SoftwareStalls(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14StreamclusterSoftware(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15MeasurementWindow(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16NUMA(b *testing.B)                     { benchExperiment(b, "fig16") }
func BenchmarkTable4PredictionErrors(b *testing.B)        { benchExperiment(b, "table4") }
func BenchmarkTable5Correlations(b *testing.B)            { benchExperiment(b, "table5") }
func BenchmarkTable6FrontendStalls(b *testing.B)          { benchExperiment(b, "table6") }
func BenchmarkTable7CrossMachine(b *testing.B)            { benchExperiment(b, "table7") }
func BenchmarkAblationAggregateStalls(b *testing.B)       { benchExperiment(b, "ablation-aggregate") }
func BenchmarkAblationCheckpoints(b *testing.B)           { benchExperiment(b, "ablation-checkpoints") }
func BenchmarkAblationKernels(b *testing.B)               { benchExperiment(b, "ablation-kernels") }
func BenchmarkUncertaintyBands(b *testing.B)              { benchExperiment(b, "uncertainty") }
