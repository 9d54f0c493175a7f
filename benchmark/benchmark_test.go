package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// One seed gives one schedule, and a cold-predict run never repeats a
// scenario.
func TestColdScheduleSeeded(t *testing.T) {
	a, err := coldSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different schedules")
	}
	c, err := coldSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
	seen := map[scenario]bool{}
	total := 0
	for r, round := range a {
		if r < 10 && len(round) != len(coldStrata()) {
			t.Errorf("round %d visits %d strata, want all %d", r, len(round), len(coldStrata()))
		}
		for _, sc := range round {
			if seen[sc] {
				t.Fatalf("scenario %s on %s repeats", sc.Workload, sc.Machine)
			}
			seen[sc] = true
			total++
		}
	}
	for _, sc := range append(coldWarmup, coldTwin) {
		if seen[sc] {
			t.Errorf("set-up scenario %s on %s is also scheduled", sc.Workload, sc.Machine)
		}
	}
	if total < 400 {
		t.Errorf("schedule holds %d scenarios; a run must not run out", total)
	}
}

func TestRoundsSeeded(t *testing.T) {
	a, b := newRoundOrder(3, streamWarm, 1, 7), newRoundOrder(3, streamWarm, 1, 7)
	for r := 0; r < 50; r += 1 + r%3 {
		seen := make([]bool, 7)
		for pos := 0; pos < 7; pos++ {
			k := a.item(r, pos)
			if k != b.item(r, pos) {
				t.Fatalf("round %d: one seed gave two orders", r)
			}
			seen[k] = true
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("round %d misses item %d", r, k)
			}
		}
	}
}

// Self time subtracts the union of the child intervals, counting overlaps
// once and ignoring what falls outside the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "kid", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "kid", Start: 90, End: 130},
	}
	got := map[string]spanStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	near := func(ms, ns float64) bool { return math.Abs(ms*1e6-ns) < 1e-6 }
	if !near(got["root"].SelfMS, 40) {
		t.Errorf("root self = %v ns, want 40", got["root"].SelfMS*1e6)
	}
	if got["kid"].Count != 3 || !near(got["kid"].SelfMS, 100) {
		t.Errorf("kid = %+v, want 3 spans, 100 ns self", got["kid"])
	}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json and metrics.json name the same workloads and metrics with
// the same units and directions, and every "moves" entry points at a real
// end-to-end metric and workload.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog()
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ kind, name, unit, better string }
	listed := map[key]bool{}
	for _, m := range bj.EndToEnd {
		listed[key{"end_to_end", m.Name, m.Unit, m.Better}] = true
	}
	for _, m := range bj.PerLayer {
		listed[key{"per_layer", m.Name, m.Unit, m.Better}] = true
	}
	e2e := map[string]bool{}
	for _, e := range cat {
		k := key{e.Kind, e.Name, e.Unit, e.Better}
		if !listed[k] {
			t.Errorf("metrics.json %+v is not in BENCHMARK.json", k)
		}
		delete(listed, k)
		if e.Kind == "end_to_end" {
			e2e[e.Name] = true
		}
	}
	for k := range listed {
		t.Errorf("BENCHMARK.json %+v is not in metrics.json", k)
	}
	workloads := map[string]bool{}
	for i, w := range bj.Workloads {
		if i >= len(workloadDefs) || workloadDefs[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q; the benchmark runs %q", i, w.Name, workloadDefs[min(i, len(workloadDefs)-1)].name)
		}
		workloads[w.Name] = true
	}
	for _, e := range cat {
		for _, mv := range e.Moves {
			if !e2e[mv.Metric] || !workloads[mv.Workload] {
				t.Errorf("%s moves unknown %s on %s", e.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// The command emits every catalogued metric, untraced and traced, on every
// workload (run fails otherwise), and every check passes.
func TestEmitsEveryCatalogedMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := &config{workload: def.name, seed: 1, seconds: 1, trace: trace,
				work: t.TempDir(), traces: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", def.name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}
