package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/counters"
)

// multiCatSeries builds a series with many independent stall categories —
// the shape where per-category fitting dominates prediction cost and the
// Extrapolate worker pool pays off.
func multiCatSeries(nCats, maxCores int) *counters.Series {
	s := &counters.Series{Workload: "bench", Machine: "BenchBox"}
	const useful = 1e9
	for p := 1; p <= maxCores; p++ {
		fp := float64(p)
		hw := make(map[string]float64, nCats)
		total := 0.0
		for c := 0; c < nCats; c++ {
			fc := float64(c + 1)
			// Every category gets its own growth profile so each fit
			// search explores different kernels.
			v := 1e7*fc + 5e5*fc*fp + 2e4*fc*fp*fp
			hw[fmt.Sprintf("EV%02d", c)] = v
			total += v
		}
		cycles := (useful + total) / fp
		s.Samples = append(s.Samples, counters.Sample{
			Cores:   p,
			Seconds: cycles / 2.1e9,
			Cycles:  cycles,
			HW:      hw,
		})
	}
	return s
}

func benchmarkExtrapolate(b *testing.B, workers int) {
	s := multiCatSeries(24, 12)
	targets, err := Targets([]int{16, 24, 32, 40, 48})
	if err != nil {
		b.Fatal(err)
	}
	pl := NewPipeline(Options{Workers: workers})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Extrapolate(context.Background(), s, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtrapolateSerial vs BenchmarkExtrapolateParallel measures the
// worker-pool speedup of step B on a 24-category series.
func BenchmarkExtrapolateSerial(b *testing.B)   { benchmarkExtrapolate(b, 1) }
func BenchmarkExtrapolateParallel(b *testing.B) { benchmarkExtrapolate(b, 0) }

func BenchmarkPredictBootstrap200(b *testing.B) {
	s := multiCatSeries(8, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(s, []int{16, 24, 32, 40, 48}, Options{Bootstrap: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBootstrap is the fit-dominated offline workflow: the
// Table-4 apps' one-processor Xeon20 windows (TestReplayFitHashes' windows)
// replayed with 100 bootstrap replicates each, so every op runs the kernel
// × prefix search and the bootstrap refits on real measurements, with no
// simulation. One op is all 19 predictions.
func BenchmarkReplayBootstrap(b *testing.B) {
	windows := replayWindows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range windows {
			if _, err := Predict(w.series, w.targets, Options{Bootstrap: replayBootstrap}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
