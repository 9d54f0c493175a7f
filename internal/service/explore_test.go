package service

import (
	"bytes"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// exploreTestRegion is a 3×2 memcached grid used across the explore tests.
const exploreTestRegion = "memcached?skew=1.5,skew=3,skew=6,setpct=0,setpct=20"

func exploreTestRequest() ExploreRequest {
	return ExploreRequest{
		Workload: exploreTestRegion,
		Machine:  "Haswell",
		Scale:    0.05,
	}
}

// TestExploreCoversRegionUnderBudget: every region cell comes back exactly
// once in grid order, simulations stay within the budget, and unmeasured
// cells carry an estimate attributed to a measured neighbour.
func TestExploreCoversRegionUnderBudget(t *testing.T) {
	svc := newTestService(t, Config{})
	resp, err := svc.Explore(bg, exploreTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region != 6 || resp.FullGridSims != 6 {
		t.Fatalf("region = %d / full grid = %d, want 6", resp.Region, resp.FullGridSims)
	}
	if resp.Budget != 3 { // default: half the region, rounded up
		t.Fatalf("default budget = %d, want 3", resp.Budget)
	}
	if resp.SimsUsed > resp.Budget {
		t.Fatalf("sims used %d exceed budget %d", resp.SimsUsed, resp.Budget)
	}
	if len(resp.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(resp.Cells))
	}
	simulated := 0
	for _, r := range resp.Rounds {
		simulated += len(r.Simulated)
	}
	if simulated != resp.SimsUsed {
		t.Fatalf("rounds list %d simulated cells, response says %d", simulated, resp.SimsUsed)
	}
	measured := 0
	for _, c := range resp.Cells {
		if c.Measured {
			measured++
			if c.Round == 0 || c.Source != "" {
				t.Errorf("measured cell %q: round=%d source=%q", c.Workload, c.Round, c.Source)
			}
			continue
		}
		if c.Error != "" {
			t.Errorf("estimated cell %q failed: %s", c.Workload, c.Error)
			continue
		}
		if c.Source == "" || c.TimeFull <= 0 || !(c.TimeLo <= c.TimeFull && c.TimeFull <= c.TimeHi) {
			t.Errorf("estimated cell %q: source=%q band [%g %g %g]",
				c.Workload, c.Source, c.TimeLo, c.TimeFull, c.TimeHi)
		}
	}
	if measured != resp.SimsUsed {
		t.Errorf("%d measured cells but %d sims used", measured, resp.SimsUsed)
	}
	if resp.Failures != 0 {
		t.Errorf("failures = %d, want 0", resp.Failures)
	}
}

// TestExploreDeterministicAcrossWorkers: the response bytes are identical
// across worker counts and across fresh services — the coordinator
// conformance contract, held locally first.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		svc := newTestService(t, Config{Workers: workers})
		req := exploreTestRequest()
		req.Workers = workers
		resp, err := svc.Explore(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		// Workers is a throughput knob: scrub nothing — the response must
		// not even echo it.
		bodies = append(bodies, encodeHTTPBody(t, resp))
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("explore bytes differ between 1 and 4 workers.\n--- 1\n%s\n--- 4\n%s", bodies[0], bodies[1])
	}
}

// TestExploreValidation pins the error surface of the new endpoint.
func TestExploreValidation(t *testing.T) {
	h := newTestHandler(t, ServerConfig{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"version", `{"api_version":"v0","workload":"memcached","machine":"Haswell"}`, "unsupported api version"},
		{"no workload", `{"machine":"Haswell"}`, "requires a workload region"},
		{"no machine", `{"workload":"memcached"}`, "exactly one machine"},
		{"machine grid", `{"workload":"memcached","machine":"Xeon20?cores=8,cores=12"}`, "exactly one machine"},
		{"unknown workload", `{"workload":"memcachd","machine":"Haswell"}`, "unknown workload"},
		{"negative bootstrap", `{"workload":"memcached","machine":"Haswell","bootstrap":-1}`, "negative bootstrap"},
		{"bootstrap above limit", `{"workload":"memcached","machine":"Haswell","bootstrap":400000000}`, "above the limit of 10000"},
		{"bad ci", `{"workload":"memcached","machine":"Haswell","ci_level":120}`, "outside (0, 100)"},
		{"negative budget", `{"workload":"memcached","machine":"Haswell","budget":-2}`, "negative exploration budget"},
		{"negative target", `{"workload":"memcached","machine":"Haswell","target_band_pct":-5}`, "negative target band"},
		{"negative round", `{"workload":"memcached","machine":"Haswell","round_size":-1}`, "negative round size"},
		{"unknown field", `{"workload":"memcached","machine":"Haswell","budgit":3}`, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := do(t, h, http.MethodPost, "/v1/explore", c.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, body)
			}
			if !strings.Contains(string(body), c.want) {
				t.Errorf("body %q does not mention %q", body, c.want)
			}
		})
	}
}

// TestWarmExploreDoesNoNewFitsOrSims: an explore whose region was already
// swept with the identical effective options is pure cache replay — the
// explorer's cells land on the same fit keys a sweep built,
// so it performs zero new fits, zero simulator calls, and only memo hits.
func TestWarmExploreDoesNoNewFitsOrSims(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	var fits atomic.Int64
	svc.fitHook = func(FitKey) { fits.Add(1) }

	if _, err := svc.Sweep(bg, SweepRequest{
		Workloads: []string{exploreTestRegion},
		Machines:  []string{"Haswell"},
		Scale:     0.05,
		Bootstrap: DefaultExploreBootstrap,
	}); err != nil {
		t.Fatal(err)
	}
	computedBefore, hitsBefore := svc.FitCacheStats()
	fitsBefore, simsBefore := fits.Load(), sims.Load()

	resp, err := svc.Explore(bg, exploreTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.SimsUsed == 0 || resp.Failures != 0 {
		t.Fatalf("explore: sims=%d failures=%d", resp.SimsUsed, resp.Failures)
	}

	computedAfter, hitsAfter := svc.FitCacheStats()
	if computedAfter != computedBefore {
		t.Errorf("warm explore computed %d new fit artifacts, want 0", computedAfter-computedBefore)
	}
	if fits.Load() != fitsBefore {
		t.Errorf("warm explore ran %d fits, want 0", fits.Load()-fitsBefore)
	}
	if sims.Load() != simsBefore {
		t.Errorf("warm explore ran the simulator %d times, want 0", sims.Load()-simsBefore)
	}
	if hitsAfter <= hitsBefore {
		t.Errorf("warm explore recorded no fit-memo hit (before=%d after=%d)", hitsBefore, hitsAfter)
	}
	// CacheHit is deliberately NOT asserted true here: the memo pins each
	// cell's flag to the series-hit observed when its fit was first
	// computed, so warm replays answer the exact bytes of the cold run.
}

// TestExploreFullBudgetMeasuresEverything: a budget covering the whole
// region measures every cell and trivially meets any target.
func TestExploreFullBudgetMeasuresEverything(t *testing.T) {
	svc := newTestService(t, Config{})
	req := exploreTestRequest()
	req.Budget = 6
	req.RoundSize = 6
	resp, err := svc.Explore(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SimsUsed != 6 {
		t.Fatalf("sims used = %d, want 6", resp.SimsUsed)
	}
	for _, c := range resp.Cells {
		if !c.Measured {
			t.Errorf("cell %q not measured under full budget", c.Workload)
		}
	}
	if !resp.TargetMet || resp.AchievedBandPct != 0 {
		t.Errorf("full-budget explore: target_met=%t achieved=%g, want met with 0 remaining estimate",
			resp.TargetMet, resp.AchievedBandPct)
	}
}
