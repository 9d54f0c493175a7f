package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestDiagnosisAttributesBarrierWait is the §4.6 finding through the
// diagnosis: streamcluster measured on Opteron cores 1..12 with software
// stalls ranks the barrier wait first at 48 cores, and the 12-core sample
// attributes it to the PARSEC pthread barrier.
func TestDiagnosisAttributesBarrierWait(t *testing.T) {
	w, err := workloads.Lookup("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := sim.CollectSeries(w, machine.Opteron(), sim.CoreRange(12), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Predict(measured, sim.CoreRange(48), core.Options{UseSoftware: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := pred.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	last := len(d.TargetCores) - 1
	if d.TargetCores[last] != 48 {
		t.Fatalf("last target = %v cores, want 48", d.TargetCores[last])
	}
	top := d.RankAt(last)[0].Category
	if top != counters.SoftBarrierWait {
		t.Errorf("top category at 48 cores = %s, want %s", top, counters.SoftBarrierWait)
	}
	at12 := measured.Samples[len(measured.Samples)-1]
	if site, _ := topSite(at12, top); site != "pthread_mutex_trylock/barrier" {
		t.Errorf("top site = %q, want the pthread barrier", site)
	}
}

func TestTopSite(t *testing.T) {
	// 0.1 + 0.2 + 0.3 rounds differently by order: in sorted site order the
	// total is (0.1 + 0.2) + 0.3 = 0.6000000000000001, while half the other
	// orders give 0.6. Variables keep the sums in float64, not exact
	// constant arithmetic.
	x1, x2, x3 := 0.1, 0.2, 0.3
	if sorted, other := x3/((x1+x2)+x3), x3/(x1+(x2+x3)); sorted == other {
		t.Fatalf("fixture does not separate summation orders: %v", sorted)
	}
	cases := []struct {
		name      string
		sites     map[string]map[string]float64
		cat       string
		wantSite  string
		wantShare float64
	}{
		{"largest share wins",
			map[string]map[string]float64{"a": {"x": 1}, "b": {"x": 3}, "c": {"y": 9}},
			"x", "b", 0.75},
		{"tie to the smaller site name",
			map[string]map[string]float64{"lock": {"x": 2}, "barrier": {"x": 2}, "alloc": {"x": 1}},
			"x", "barrier", 0.4},
		{"category with no cycles has no site",
			map[string]map[string]float64{"a": {"x": 0}, "b": {"y": 5}},
			"x", "", 0},
		{"no sites",
			nil,
			"x", "", 0},
		{"total summed in sorted site order",
			map[string]map[string]float64{"s1": {"x": x1}, "s2": {"x": x2}, "s3": {"x": x3}},
			"x", "s3", x3 / ((x1 + x2) + x3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := counters.Sample{Sites: c.sites}
			// Map order changes from call to call; every call must agree.
			for range 50 {
				site, share := topSite(s, c.cat)
				if site != c.wantSite || share != c.wantShare {
					t.Fatalf("topSite = %q, %v; want %q, %v", site, share, c.wantSite, c.wantShare)
				}
			}
		})
	}
}
