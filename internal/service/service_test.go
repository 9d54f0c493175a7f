package service

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// bg is the background context shared by tests that don't exercise
// cancellation.
var bg = context.Background()

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewRejectsUnusableCacheDir(t *testing.T) {
	// A path under an existing file cannot be MkdirAll'd.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CacheDir: filepath.Join(file, "sub")}); err == nil {
		t.Error("unusable cache dir should fail New")
	}
	if _, err := New(Config{Workers: -1}); err == nil {
		t.Error("negative workers should fail New")
	}
}

func TestRequestValidation(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		sims.Add(1)
		return sim.Collect(w, m, cores, scale)
	}})
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"bad version", func() error {
			_, err := svc.Predict(bg, PredictRequest{APIVersion: "v99", Workload: "intruder", Machine: "Haswell"})
			return err
		}, "unsupported api version"},
		{"unknown workload with suggestion", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intrduer", Machine: "Haswell"})
			return err
		}, `did you mean "intruder"?`},
		{"unknown machine with suggestion", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "haswel"})
			return err
		}, `did you mean "Haswell"?`},
		{"negative bootstrap", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Bootstrap: -1})
			return err
		}, "negative bootstrap"},
		{"bootstrap above limit", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05, Bootstrap: 400000000})
			return err
		}, "above the limit of 10000"},
		{"ci out of range", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Bootstrap: 10, CILevel: 150})
			return err
		}, "outside (0, 100)"},
		{"unknown target", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Target: "Xeon99"})
			return err
		}, "unknown machine"},
		{"garbage series", func() error {
			_, err := svc.Predict(bg, PredictRequest{Series: []byte("{")})
			return err
		}, "decoding series"},
		{"sweep unknown workload", func() error {
			_, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"nope"}})
			return err
		}, "unknown workload"},
		{"collect bad cores", func() error {
			_, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "0-4"})
			return err
		}, "bad core range"},
		{"collect cores beyond machine", func() error {
			_, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-2000000000"})
			return err
		}, "exceeds the machine's"},
		{"curve bad cores", func() error {
			_, err := svc.Curve(bg, CurveRequest{Workload: "intruder", Machine: "Haswell", Cores: "x"})
			return err
		}, "bad core count"},
		{"collect core listed twice", func() error {
			_, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4,1-4"})
			return err
		}, "core count 1 listed twice"},
		{"curve core listed twice", func() error {
			_, err := svc.Curve(bg, CurveRequest{Workload: "intruder", Machine: "Haswell", Cores: "1,3,2-3"})
			return err
		}, "core count 3 listed twice"},
		// JSON cannot carry a non-finite number, but in-process callers
		// can: each must fail validation before anything is simulated.
		{"ci NaN", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Bootstrap: 10, CILevel: math.NaN()})
			return err
		}, "outside (0, 100)"},
		{"sweep ci NaN", func() error {
			_, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"genome"}, Machines: []string{"Haswell"}, Bootstrap: 5, CILevel: math.NaN()})
			return err
		}, "confidence level NaN% outside (0, 100)"},
		{"sweep ci +Inf", func() error {
			_, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"genome"}, Machines: []string{"Haswell"}, Bootstrap: 5, CILevel: math.Inf(1)})
			return err
		}, "confidence level +Inf% outside (0, 100)"},
		{"cell ci -Inf", func() error {
			_, err := svc.Cell(bg, CellRequest{Workload: "genome", Machine: "Haswell", Bootstrap: 5, CILevel: math.Inf(-1)})
			return err
		}, "confidence level -Inf% outside (0, 100)"},
		{"explore ci NaN", func() error {
			req := exploreTestRequest()
			req.CILevel = math.NaN()
			_, err := svc.Explore(bg, req)
			return err
		}, "confidence level NaN% outside (0, 100)"},
		{"predict scale NaN", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: math.NaN()})
			return err
		}, "non-finite scale NaN"},
		{"predict scale +Inf", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: math.Inf(1)})
			return err
		}, "non-finite scale +Inf"},
		{"predict data scale NaN", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05, DataScale: math.NaN()})
			return err
		}, "non-finite data scale NaN"},
		{"collect scale NaN", func() error {
			_, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: math.NaN()})
			return err
		}, "non-finite scale NaN"},
		{"curve scale -Inf", func() error {
			_, err := svc.Curve(bg, CurveRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: math.Inf(-1)})
			return err
		}, "non-finite scale -Inf"},
		{"sweep scale NaN", func() error {
			_, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"genome"}, Machines: []string{"Haswell"}, Scale: math.NaN()})
			return err
		}, "non-finite scale NaN"},
		{"cell scale NaN", func() error {
			_, err := svc.Cell(bg, CellRequest{Workload: "genome", Machine: "Haswell", Scale: math.NaN()})
			return err
		}, "non-finite scale NaN"},
		{"diagnose scale +Inf", func() error {
			_, err := svc.Diagnose(bg, DiagnoseRequest{Workload: "intruder", Machine: "Haswell", Scale: math.Inf(1)})
			return err
		}, "non-finite scale +Inf"},
		{"explore scale NaN", func() error {
			req := exploreTestRequest()
			req.Scale = math.NaN()
			_, err := svc.Explore(bg, req)
			return err
		}, "non-finite scale NaN"},
		// A scale above sim.MaxScale is rejected the same way, and so is a
		// compared predict whose target scale (scale × data scale) is.
		{"predict scale above limit", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 9})
			return err
		}, "scale 9 above the limit of 8"},
		{"compared predict data scale above limit", func() error {
			_, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05, DataScale: 200, Compare: true})
			return err
		}, "comparing at scale × data scale: scale 10 above the limit of 8"},
		{"collect scale above limit", func() error {
			_, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: 9})
			return err
		}, "scale 9 above the limit of 8"},
		{"curve scale above limit", func() error {
			_, err := svc.Curve(bg, CurveRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: 9})
			return err
		}, "scale 9 above the limit of 8"},
		{"sweep scale above limit", func() error {
			_, err := svc.Sweep(bg, SweepRequest{Workloads: []string{"genome"}, Machines: []string{"Haswell"}, Scale: 9})
			return err
		}, "scale 9 above the limit of 8"},
		{"cell scale above limit", func() error {
			_, err := svc.Cell(bg, CellRequest{Workload: "genome", Machine: "Haswell", Scale: 9})
			return err
		}, "scale 9 above the limit of 8"},
		{"diagnose scale above limit", func() error {
			_, err := svc.Diagnose(bg, DiagnoseRequest{Workload: "intruder", Machine: "Haswell", Scale: 9})
			return err
		}, "scale 9 above the limit of 8"},
		{"explore scale above limit", func() error {
			req := exploreTestRequest()
			req.Scale = 9
			_, err := svc.Explore(bg, req)
			return err
		}, "scale 9 above the limit of 8"},
		{"explore band NaN", func() error {
			req := exploreTestRequest()
			req.TargetBandPct = math.NaN()
			_, err := svc.Explore(bg, req)
			return err
		}, "non-finite target band width NaN"},
		{"explore band +Inf", func() error {
			req := exploreTestRequest()
			req.TargetBandPct = math.Inf(1)
			_, err := svc.Explore(bg, req)
			return err
		}, "non-finite target band width +Inf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Fatal("want error")
			}
			if !IsBadRequest(err) {
				t.Errorf("error %v is not a BadRequestError", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			if n := sims.Swap(0); n != 0 {
				t.Errorf("a rejected request simulated %d samples", n)
			}
		})
	}
}

// TestUncomparedPredictTakesAnyDataScale: the data scale bounds only the
// comparison's measurement, so a predict without one accepts a data scale
// whose product with the scale is above the limit.
func TestUncomparedPredictTakesAnyDataScale(t *testing.T) {
	svc := newTestService(t, Config{})
	if _, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05, DataScale: 200}); err != nil {
		t.Fatal(err)
	}
}

// A prediction from a replayed series document must match the simulate path
// exactly: one code path, two entrances.
func TestPredictReplayMatchesSimulate(t *testing.T) {
	svc := newTestService(t, Config{})
	direct, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	col, err := svc.Collect(bg, CollectRequest{Workload: "intruder", Machine: "Haswell", Cores: "1-4", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := svc.Predict(bg, PredictRequest{Series: col.Series, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Time, replay.Time) {
		t.Errorf("replayed prediction differs:\n%v\n%v", direct.Time, replay.Time)
	}
	if !reflect.DeepEqual(direct.Actual, replay.Actual) {
		t.Errorf("replayed comparison differs")
	}
	if replay.MeasCores != 0 || replay.Samples != 4 {
		t.Errorf("replay metadata: meas=%d samples=%d", replay.MeasCores, replay.Samples)
	}
}

// Concurrent requests for the same series share one simulation, and a
// second service over the same cache dir replays from disk.
func TestSeriesMemoizationAndStore(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	counting := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		calls.Add(1)
		return sim.Collect(w, m, cores, scale)
	}
	svc := newTestService(t, Config{CacheDir: dir, CollectSample: counting})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	first, hit, err := svc.Series(bg, w, m, 4, 0.05)
	if err != nil || hit {
		t.Fatalf("cold series: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 4 {
		t.Fatalf("cold collection ran the simulator %d times, want 4", calls.Load())
	}
	second, _, err := svc.Series(bg, w, m, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized series differs from the collected one")
	}
	if calls.Load() != 4 {
		t.Errorf("memoized read re-ran the simulator (%d calls)", calls.Load())
	}

	denying := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		t.Errorf("simulator invoked on a warm cache (%s, %d cores)", w.Name(), cores)
		return counters.Sample{}, nil
	}
	warm := newTestService(t, Config{CacheDir: dir, CollectSample: denying})
	replayed, hit, err := warm.Series(bg, w, m, 4, 0.05)
	if err != nil || !hit {
		t.Fatalf("warm series: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(first, replayed) {
		t.Error("store replay differs from the collected series")
	}
}

// The in-process entry points resolve their scale as every request does: a
// non-finite scale is a bad request that never reaches the simulator, and
// scale 0 means the full-size datasets, so it replays what scale 1
// measured and fitted.
func TestInProcessEntryPointsResolveScale(t *testing.T) {
	var calls atomic.Int64
	collect := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		calls.Add(1)
		if scale != 1 {
			t.Errorf("simulator asked for scale %g, want 1", scale)
			return counters.Sample{}, errors.New("unexpected scale")
		}
		return sim.Collect(w, m, cores, scale)
	}
	svc := newTestService(t, Config{CollectSample: collect})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	targets := sim.CoreRange(m.NumCores())
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2 * sim.MaxScale} {
		if _, _, err := svc.Series(bg, w, m, 4, scale); !IsBadRequest(err) {
			t.Errorf("Series at scale %g: err = %v, want a BadRequestError", scale, err)
		}
		if _, _, err := svc.Predicted(bg, w, m, 4, scale, targets, core.Options{}); !IsBadRequest(err) {
			t.Errorf("Predicted at scale %g: err = %v, want a BadRequestError", scale, err)
		}
	}
	if n := calls.Swap(0); n != 0 {
		t.Errorf("a rejected scale reached the simulator %d times", n)
	}

	one, _, err := svc.Series(bg, w, m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	zero, _, err := svc.Series(bg, w, m, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, zero) || zero.Scale != 1 {
		t.Errorf("scale 0 series (scale %g) differs from the scale 1 series", zero.Scale)
	}
	pone, _, err := svc.Predicted(bg, w, m, 4, 1, targets, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fits, _ := svc.FitCacheStats()
	pzero, _, err := svc.Predicted(bg, w, m, 4, 0, targets, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := svc.FitCacheStats(); pzero != pone || after != fits {
		t.Errorf("scale 0 prediction was fitted anew (%d fits after, %d before)", after, fits)
	}
	if n := calls.Load(); n != 4 {
		t.Errorf("simulator ran %d times, want 4 (one window, then replays)", n)
	}
}

// A cancelled collection must not poison the memo: the next request with a
// live context retries and succeeds.
func TestSeriesRetriesAfterCancelledCollection(t *testing.T) {
	svc := newTestService(t, Config{})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()
	dead, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := svc.Series(dead, w, m, 3, 0.05); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collection = %v, want context.Canceled", err)
	}
	if _, _, err := svc.Series(bg, w, m, 3, 0.05); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// A shared in-flight collection must survive one waiter's cancellation:
// the cancelled requester gets context.Canceled immediately, the other
// requester still gets the series.
func TestSharedCollectionSurvivesOneWaitersCancellation(t *testing.T) {
	release := make(chan struct{})
	var startedOnce sync.Once
	started := make(chan struct{})
	slow := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		startedOnce.Do(func() { close(started) })
		<-release
		return sim.Collect(w, m, cores, scale)
	}
	svc := newTestService(t, Config{CollectSample: slow, Workers: 4})
	w, err := workloads.Lookup("genome")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.HaswellDesktop()

	ctxA, cancelA := context.WithCancel(bg)
	resA := make(chan error, 1)
	go func() {
		_, _, err := svc.Series(ctxA, w, m, 2, 0.05)
		resA <- err
	}()
	<-started
	type res struct {
		series *counters.Series
		err    error
	}
	resB := make(chan res, 1)
	go func() {
		s, _, err := svc.Series(bg, w, m, 2, 0.05)
		resB <- res{s, err}
	}()
	time.Sleep(20 * time.Millisecond) // let B join the in-flight entry
	cancelA()
	if err := <-resA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
	b := <-resB
	if b.err != nil {
		t.Fatalf("surviving waiter failed: %v", b.err)
	}
	if b.series == nil || len(b.series.Samples) != 2 {
		t.Errorf("surviving waiter got series %+v", b.series)
	}
}

// One pathological cell must not sink the sweep matrix.
func TestSweepIsolatesCellFailures(t *testing.T) {
	failing := func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		if w.Name() == "genome" {
			return counters.Sample{}, errors.New("synthetic genome failure")
		}
		return sim.Collect(w, m, cores, scale)
	}
	svc := newTestService(t, Config{CollectSample: failing})
	resp, err := svc.Sweep(bg, SweepRequest{
		Workloads: []string{"intruder", "genome"},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 1 || len(resp.Cells) != 2 {
		t.Fatalf("failures=%d cells=%d, want 1/2", resp.Failures, len(resp.Cells))
	}
	if resp.Cells[0].Error != "" || resp.Cells[0].TimeFull <= 0 {
		t.Errorf("healthy cell suffered: %+v", resp.Cells[0])
	}
	if !strings.Contains(resp.Cells[1].Error, "synthetic genome failure") {
		t.Errorf("failing cell error = %q", resp.Cells[1].Error)
	}
}
