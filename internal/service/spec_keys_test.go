package service

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestCanonicalFormKeyStability pins the one-identity rule of the spec
// layer: a bare name, its all-defaults spec and a permuted/reformatted spec
// of the same scenario resolve to identical fit keys, whose names are also
// the store's sample keys — a warm cache written before the spec layer
// existed keeps answering, and equivalent spellings share every memo.
func TestCanonicalFormKeyStability(t *testing.T) {
	targets := joinTargets(sim.CoreRange(4))
	opt, _ := core.Options{Workers: 1}.Fingerprint()
	key := func(workload, mach string) FitKey { return fitKey(workload, mach, 4, 1, opt, targets) }

	equivalent := map[string][]string{
		"memcached": {
			"memcached",
			"memcached?skew=2,setpct=5,valsize=550",    // all defaults, spelled out
			"memcached?valsize=550,skew=2.0,setpct=05", // permuted keys, reformatted values
		},
		"memcached?skew=3.5,valsize=1024": {
			"memcached?skew=3.5,valsize=1024",
			"memcached?valsize=1024,skew=3.50",
			"memcached?skew=3.5,setpct=5,valsize=1024",
		},
	}
	for canonical, spellings := range equivalent {
		var first FitKey
		for i, s := range spellings {
			w, err := workloads.Lookup(s)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", s, err)
			}
			if w.Name() != canonical {
				t.Errorf("Lookup(%q).Name() = %q, want %q", s, w.Name(), canonical)
			}
			k := key(w.Name(), "Haswell")
			if i == 0 {
				first = k
				continue
			}
			if k != first {
				t.Errorf("fit key of %q differs from %q", s, spellings[0])
			}
		}
	}

	// Distinct parameter values must key distinctly — the whole point of
	// the scenario space.
	base, _ := workloads.Lookup("memcached")
	varied, err := workloads.Lookup("memcached?skew=3")
	if err != nil {
		t.Fatal(err)
	}
	if key(base.Name(), "Haswell") == key(varied.Name(), "Haswell") {
		t.Error("variant shares the default's fit key")
	}

	// The machine side obeys the same rule.
	m1, err := machine.Lookup("Xeon20")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := machine.Lookup("Xeon20?cores=20,membw=1,freq=2.8,sockets=2")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Name != m2.Name {
		t.Errorf("all-defaults machine spec canonicalizes to %q, want %q", m2.Name, m1.Name)
	}
	if key("intruder", m1.Name) != key("intruder", m2.Name) {
		t.Error("all-defaults machine spec keys differently from the preset")
	}
	mo, err := machine.Lookup("Xeon20?membw=0.8")
	if err != nil {
		t.Fatal(err)
	}
	if key("intruder", mo.Name) == key("intruder", m1.Name) {
		t.Error("overridden machine shares the preset's fit key")
	}
}

// TestSweepGridVariants is the acceptance scenario: a sweep over three
// parameterized variants of one family runs end-to-end through the
// planner with a distinct series and fit per variant, and a repeat of the
// same request answers every cell from the fitted-model memo (prefix/memo
// reuse within each variant, no aliasing across variants).
func TestSweepGridVariants(t *testing.T) {
	svc := newTestService(t, Config{})
	req := SweepRequest{
		Workloads: []string{"intruder?batch=1,batch=2,batch=4"},
		Machines:  []string{"Haswell?cores=2"},
		Scale:     0.05,
	}
	resp, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	wantWls := []string{"intruder", "intruder?batch=2", "intruder?batch=4"}
	if len(resp.Workloads) != len(wantWls) {
		t.Fatalf("expanded workloads = %v, want %v", resp.Workloads, wantWls)
	}
	for i, w := range wantWls {
		if resp.Workloads[i] != w {
			t.Errorf("workload[%d] = %q, want %q", i, resp.Workloads[i], w)
		}
	}
	if resp.Failures != 0 || len(resp.Cells) != 3 {
		t.Fatalf("cells = %d, failures = %d", len(resp.Cells), resp.Failures)
	}
	// Variants must predict distinctly: identical times across all three
	// would mean the parameters never reached the simulator.
	if resp.Cells[0].TimeFull == resp.Cells[1].TimeFull && resp.Cells[1].TimeFull == resp.Cells[2].TimeFull {
		t.Error("all variants predicted identical times")
	}

	computed0, _ := svc.FitCacheStats()
	if computed0 != 3 {
		t.Errorf("cold sweep computed %d fits, want 3 (one per variant)", computed0)
	}
	warm, err := svc.Sweep(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	computed1, hits := svc.FitCacheStats()
	if computed1 != computed0 {
		t.Errorf("warm sweep computed %d new fits, want 0", computed1-computed0)
	}
	if hits < 3 {
		t.Errorf("warm sweep took %d memo hits, want >= 3", hits)
	}
	for i := range warm.Cells {
		// Memoized artifacts answer with the hit flag recorded at first
		// computation, so repeated requests are byte-identical to the first.
		if warm.Cells[i].CacheHit != resp.Cells[i].CacheHit {
			t.Errorf("warm cell %d changed its cache-hit flag", i)
		}
		if warm.Cells[i].TimeFull != resp.Cells[i].TimeFull {
			t.Errorf("warm cell %d predicts differently", i)
		}
	}

	// The summary reports the deduplicated plan: three distinct variants,
	// three distinct series and fits.
	var lines int
	sum, err := svc.SweepStream(bg, req, func(SweepCell) error { lines++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if lines != 3 || sum.DistinctSeries != 3 || sum.DistinctFits != 3 {
		t.Errorf("stream = %d lines, %d series, %d fits; want 3/3/3",
			lines, sum.DistinctSeries, sum.DistinctFits)
	}
}

// TestSweepGridDedupesEquivalentValues pins that one grid entry is one
// scenario set: values that canonicalize identically collapse to a single
// cell instead of inflating the matrix with duplicates.
func TestSweepGridDedupesEquivalentValues(t *testing.T) {
	svc := newTestService(t, Config{})
	plan, err := svc.PlanSweep(SweepRequest{
		Workloads: []string{"intruder?batch=2,batch=2.0,batch=4"},
		Machines:  []string{"Haswell?cores=2,cores=2"},
		Scale:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Workloads) != 2 || len(plan.Machines) != 1 || len(plan.Cells) != 2 {
		t.Errorf("plan = %v x %v (%d cells), want 2 workloads x 1 machine",
			plan.Workloads, plan.Machines, len(plan.Cells))
	}
}

// gridOf builds a grid fragment "key=start,key=start+1,..." with n values.
func gridOf(key string, start, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("%s=%d", key, start+i)
	}
	return strings.Join(parts, ",")
}

// TestSweepGridValidation pins grid-specific failure modes.
func TestSweepGridValidation(t *testing.T) {
	svc := newTestService(t, Config{})
	cases := []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"grid in machines with an unsplittable core count",
			SweepRequest{Workloads: []string{"intruder"}, Machines: []string{"Xeon20?cores=3,cores=4"}},
			"do not split evenly"},
		{"unknown param inside a grid",
			SweepRequest{Workloads: []string{"memcached?skw=1,skw=2"}},
			`did you mean "skew"?`},
		{"malformed spec entry",
			SweepRequest{Workloads: []string{"memcached?skew"}},
			"not key=value"},
		{"aggregate cross product beyond the cell limit",
			SweepRequest{
				// 8 x 16 x 16 = 2048 workload instances (under the per-spec
				// grid cap) times 12 machines = 24576 cells: every entry
				// passes its own bound but the aggregate must trip the
				// ceiling before any cell exists.
				Workloads: []string{"memcached?" + gridOf("skew", 1, 8) + "," +
					gridOf("setpct", 0, 16) + "," + gridOf("valsize", 64, 16)},
				Machines: []string{"Xeon20?" + gridOf("freq", 1, 6) + "," + gridOf("sockets", 1, 2)},
			},
			"more than the 16384-cell limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := svc.Sweep(bg, c.req)
			if err == nil || !IsBadRequest(err) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want bad request containing %q", err, c.want)
			}
		})
	}
}
