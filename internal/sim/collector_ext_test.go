package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestReusedStateMatchesFresh drives one collection state through runs that
// shrink, grow and switch machines, and holds every sample to the one a
// fresh state collects: nothing a run leaves in the pooled state — longer
// slices, thread records, cache arrays, wait buffers, directory page tables
// or program buffers — reaches a later run's numbers.
func TestReusedStateMatchesFresh(t *testing.T) {
	runs := []struct {
		mach  string
		cores int
	}{{"Opteron", 48}, {"Xeon20", 20}, {"Opteron", 12}, {"Haswell", 4}, {"Opteron", 48}}
	for _, name := range []string{"intruder", "lock-based HT"} {
		w, err := workloads.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var reused sim.CollectState
		for _, r := range runs {
			m, err := machine.Lookup(r.mach)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.Collect(w, m, r.cores, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			var fresh sim.CollectState
			want, err := fresh.Collect(w, m, r.cores, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s at %d cores: the reused state sampled\n%+v\nwant the fresh state's\n%+v",
					name, r.mach, r.cores, got, want)
			}
		}
	}
}
