package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// updateFitGoldens regenerates the replayed-prediction fit hashes:
//
//	go test ./internal/core -run TestReplayFitHashes -update-fit-goldens
var updateFitGoldens = flag.Bool("update-fit-goldens", false,
	"rewrite the replayed-prediction fit hash golden file")

// The replay windows are the offline workflow of the paper's Table 4: every
// Table-4 app measured on one Xeon20 processor (cores 1..10) at a scale
// where the curves keep their shape, predicted over the whole machine with
// residual-bootstrap bands.
const (
	replayScale     = 0.25
	replayBootstrap = 100
)

// replayWindow is one app's measured window and the targets it is
// predicted over.
type replayWindow struct {
	name    string
	series  *counters.Series
	targets []int
}

// replayWindows simulates the Table-4 apps' one-processor windows on
// Xeon20.
func replayWindows(tb testing.TB) []replayWindow {
	tb.Helper()
	m := machine.Xeon20()
	meas := make([]int, m.OneProcessorCores())
	for i := range meas {
		meas[i] = i + 1
	}
	targets := make([]int, m.NumCores())
	for i := range targets {
		targets[i] = i + 1
	}
	var out []replayWindow
	for _, name := range workloads.Table4Names() {
		w, err := workloads.Lookup(name)
		if err != nil {
			tb.Fatalf("Lookup(%q): %v", name, err)
		}
		s, err := sim.CollectSeries(w, m, meas, replayScale)
		if err != nil {
			tb.Fatalf("CollectSeries(%q): %v", name, err)
		}
		out = append(out, replayWindow{name: name, series: s, targets: targets})
	}
	return out
}

// bitsHash hashes values by their exact IEEE-754 bits, so two results hash
// equal only when every bit agrees.
type bitsHash struct{ h hash.Hash }

func (b bitsHash) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.h.Write(buf[:])
}

func (b bitsHash) f64s(vs ...float64) {
	b.u64(uint64(len(vs)))
	for _, v := range vs {
		b.u64(math.Float64bits(v))
	}
}

func (b bitsHash) str(s string) {
	b.u64(uint64(len(s)))
	b.h.Write([]byte(s))
}

func (b bitsHash) fit(f *fit.Fit) {
	b.str(f.Kernel.Name)
	b.u64(uint64(f.PrefixLen))
	b.f64s(f.CheckpointRMSE)
	b.f64s(f.Params...)
}

// predictionHash covers everything a replayed prediction's fits decide:
// the point and band predictions, the stability scores, and every selected
// fit's kernel, prefix, checkpoint score and coefficients.
func predictionHash(p *Prediction) string {
	b := bitsHash{sha256.New()}
	b.f64s(p.Time...)
	b.f64s(p.TimeLo...)
	b.f64s(p.TimeHi...)
	b.f64s(p.StallsPerCore...)
	names := make([]string, 0, len(p.Stability))
	for name := range p.Stability {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.str(name)
		b.f64s(p.Stability[name])
	}
	b.f64s(p.FactorStability)
	b.u64(uint64(p.Bootstraps))
	cats := make([]string, 0, len(p.CategoryFits))
	for name := range p.CategoryFits {
		cats = append(cats, name)
	}
	sort.Strings(cats)
	for _, name := range cats {
		b.str(name)
		b.fit(p.CategoryFits[name])
	}
	b.fit(p.FactorFit)
	return fmt.Sprintf("%x", b.h.Sum(nil))
}

// TestReplayFitHashes golden-locks the fit layer's numerics on real
// measurement windows: every Table-4 app replayed with bootstrap bands must
// reproduce bit-identical fits, bands and stability scores. Between them
// the windows select every Table-1 kernel (the rationals included, which
// the 4-point Haswell windows of the service goldens never fit) plus the
// Linear fallback, so any change to the solver's floating-point operations
// or their order fails here. A deliberate numerical change regenerates the
// file with -update-fit-goldens.
func TestReplayFitHashes(t *testing.T) {
	path := filepath.Join("testdata", "replay_fit_hashes.golden")

	var lines []string
	selected := map[string]int{}
	for _, w := range replayWindows(t) {
		p, err := Predict(w.series, w.targets, Options{Bootstrap: replayBootstrap})
		if err != nil {
			t.Fatalf("Predict(%q): %v", w.name, err)
		}
		for _, f := range p.CategoryFits {
			selected[f.Kernel.Name]++
		}
		lines = append(lines, fmt.Sprintf("%s %s", strings.ReplaceAll(w.name, " ", "_"), predictionHash(p)))
	}
	t.Logf("category fits by kernel: %v", selected)
	for _, k := range append(append([]*fit.Kernel(nil), fit.AllKernels...), fit.Linear) {
		if selected[k.Name] == 0 {
			t.Errorf("no category fit selects %s: the windows no longer cover every kernel", k.Name)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateFitGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", path, len(lines))
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update-fit-goldens)", err)
	}
	defer f.Close()
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[key] = h
		order = append(order, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	gotMap := map[string]string{}
	for _, l := range lines {
		key, h, _ := strings.Cut(l, " ")
		gotMap[key] = h
	}
	if len(gotMap) != len(want) {
		t.Errorf("golden has %d entries, run produced %d (Table-4 set changed?)", len(want), len(gotMap))
	}
	for _, key := range order {
		g, ok := gotMap[key]
		if !ok {
			t.Errorf("%s: missing from this run", key)
			continue
		}
		if g != want[key] {
			t.Errorf("%s: fit hash changed\n  want %s\n  got  %s\n(the fit layer's numerics drifted: a rewrite must keep every floating-point operation and its order)", key, want[key], g)
		}
	}
}
