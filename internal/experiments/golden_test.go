package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the experiment goldens instead of comparing against
// them:
//
//	go test ./internal/experiments -run TestExperimentGoldens -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenScale is the smallest scale at which every experiment succeeds and
// still produces non-degenerate series.
const goldenScale = 0.02

// TestExperimentGoldens pins every experiment's rendered text to the byte,
// so a change to the fits, the simulator or an experiment that moves any
// reported number shows up as a golden diff. The experiments share one
// store, as `estima-bench -exp all -cache` would, so each series is
// simulated once; the text does not depend on it.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cfg := Config{Scale: goldenScale, CacheDir: t.TempDir()}
	for _, id := range IDs() {
		res, err := Run(bg, id, cfg)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		path := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(res.Text), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if res.Text != string(want) {
			t.Errorf("%s moved.\n--- want\n%s\n--- got\n%s", id, want, res.Text)
		}
	}
}
