package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
)

// bg is the background context shared by tests that don't exercise
// cancellation.
var bg = context.Background()

// tinyScale keeps the smoke tests fast; the experiments only need enough
// work to produce non-degenerate series.
const tinyScale = 0.1

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) != 22 {
		t.Errorf("got %d experiments, want 22", len(ids))
	}
	want := []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"table4", "table5", "table6", "table7",
		"ablation-aggregate", "ablation-checkpoints", "ablation-kernels",
		"uncertainty"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
	if Title("nope") != "" {
		t.Error("unknown id should have empty title")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run(bg, "nope", Config{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

// A non-finite scale fails before any measurement: NaN passes the
// scale <= 0 default, and table5 used to print wrong correlations with it.
func TestRunRejectsNonFiniteScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Run(bg, "table5", Config{Scale: scale})
		want := fmt.Sprintf("experiment table5: non-finite scale %g", scale)
		if err == nil || err.Error() != want {
			t.Errorf("scale %g: err = %v, want %q", scale, err, want)
		}
	}
}

// TestQuickExperiments runs the cheap experiments end to end at a tiny
// scale; the expensive multi-machine tables are exercised by the
// benchmarks and cmd/estima-bench.
func TestQuickExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, id := range []string{"fig1", "fig2", "fig12", "fig14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(bg, id, Config{Scale: tinyScale})
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id || res.Title == "" {
				t.Errorf("result metadata: %+v", res)
			}
			if !strings.Contains(res.Text, "cores") {
				t.Errorf("%s output has no series:\n%s", id, res.Text)
			}
		})
	}
}

func TestFig6AtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	res, err := Run(bg, "fig6", Config{Scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"memcached", "sqlite"} {
		if !strings.Contains(res.Text, name) {
			t.Errorf("fig6 output missing %s", name)
		}
	}
}

// TestSeriesWarmCacheAcrossEnvs is the acceptance test for measurement
// persistence: a second env (standing in for a second process) with the same
// CacheDir must return the identical series without invoking the simulator.
func TestSeriesWarmCacheAcrossEnvs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Scale: 0.05, CacheDir: dir}
	m := machine.Opteron()

	cold := newEnv(bg, cfg)
	var coldCalls atomic.Int64
	cold.collect = func(w sim.Workload, mc *machine.Config, cores int, scale float64) (counters.Sample, error) {
		coldCalls.Add(1)
		return sim.Collect(w, mc, cores, scale)
	}
	first, err := cold.series("intruder", m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if coldCalls.Load() != 4 {
		t.Fatalf("cold collection ran the simulator %d times, want 4", coldCalls.Load())
	}

	warm := newEnv(bg, cfg)
	warm.collect = func(w sim.Workload, mc *machine.Config, cores int, scale float64) (counters.Sample, error) {
		return counters.Sample{}, fmt.Errorf("simulator invoked on a warm cache (%s, %d cores)", w.Name(), cores)
	}
	second, err := warm.series("intruder", m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("warm-cache series differs from the collected one")
	}

	// A different effective scale is a different key: it must re-collect,
	// not replay the wrong series.
	miss := newEnv(bg, cfg)
	var missCalls atomic.Int64
	miss.collect = func(w sim.Workload, mc *machine.Config, cores int, scale float64) (counters.Sample, error) {
		missCalls.Add(1)
		return sim.Collect(w, mc, cores, scale)
	}
	if _, err := miss.series("intruder", m, 4, 2); err != nil {
		t.Fatal(err)
	}
	if missCalls.Load() != 4 {
		t.Errorf("different dataScale should re-collect; simulator ran %d times, want 4", missCalls.Load())
	}
}

// TestSeriesNoCacheDirStillWorks pins the default path: without a CacheDir
// the env memoizes in process and never persists.
func TestSeriesNoCacheDirStillWorks(t *testing.T) {
	e := newEnv(bg, Config{Scale: 0.05})
	var calls atomic.Int64
	e.collect = func(w sim.Workload, mc *machine.Config, cores int, scale float64) (counters.Sample, error) {
		calls.Add(1)
		return sim.Collect(w, mc, cores, scale)
	}
	m := machine.Opteron()
	s1, err := e.series("genome", m, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.series("genome", m, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) || calls.Load() != 3 {
		t.Errorf("in-process memoization: series equal=%v after %d simulations, want equal after 3",
			reflect.DeepEqual(s1, s2), calls.Load())
	}
	if len(s1.Samples) != 3 {
		t.Errorf("got %d samples, want 3", len(s1.Samples))
	}
}

func TestWindowAndCoresFrom(t *testing.T) {
	if got := coresFrom(12, 15); len(got) != 3 || got[0] != 13 || got[2] != 15 {
		t.Errorf("coresFrom = %v", got)
	}
	if got := coresFrom(5, 5); got != nil {
		t.Errorf("empty coresFrom = %v", got)
	}
}

func TestUsesSoftwareStalls(t *testing.T) {
	for _, name := range []string{"genome", "intruder", "streamcluster", "yada"} {
		if !usesSoftwareStalls(name) {
			t.Errorf("%s should use software stalls", name)
		}
	}
	for _, name := range []string{"blackscholes", "memcached", "lock-based HT"} {
		if usesSoftwareStalls(name) {
			t.Errorf("%s should not use software stalls", name)
		}
	}
}
