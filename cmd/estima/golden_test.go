package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/estima -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenCases pin 'estima predict' and 'estima sweep' stdout to the byte —
// the files were captured from the pre-service CLI, so routing every
// command through internal/service provably changed nothing a user sees.
var goldenCases = []struct {
	file string
	run  func() error
}{
	{"predict_intruder_haswell.golden", func() error {
		return cmdPredict(bg, []string{"-w", "intruder", "-m", "Haswell", "-scale", "0.05"})
	}},
	{"predict_intruder_xeon20.golden", func() error {
		return cmdPredict(bg, []string{"-w", "intruder", "-m", "Xeon20", "-scale", "0.05", "-soft"})
	}},
	{"predict_genome_boot.golden", func() error {
		return cmdPredict(bg, []string{"-w", "genome", "-m", "Haswell", "-scale", "0.05",
			"-soft", "-boot", "50", "-compare=false"})
	}},
	{"sweep_table.golden", func() error {
		return cmdSweep(bg, []string{"-w", "intruder,genome", "-m", "Haswell",
			"-scale", "0.05", "-format", "table"})
	}},
	{"sweep_csv_boot.golden", func() error {
		return cmdSweep(bg, []string{"-w", "intruder,genome", "-m", "Haswell",
			"-scale", "0.05", "-format", "csv", "-boot", "40"})
	}},
	{"sweep_ndjson.golden", func() error {
		return cmdSweep(bg, []string{"-w", "intruder,genome", "-m", "Haswell",
			"-scale", "0.05", "-format", "ndjson"})
	}},
	{"list.golden", func() error {
		return cmdList(bg, nil)
	}},
	{"list_v.golden", func() error {
		return cmdList(bg, []string{"-v"})
	}},
	{"sweep_param_ndjson.golden", func() error {
		// A value grid over one family plus a machine override: three
		// scenarios whose cells carry canonical spec strings — including
		// batch=1, which elides to the bare family name.
		return cmdSweep(bg, []string{"-w", "intruder?batch=1,batch=2,batch=4",
			"-m", "Haswell?cores=2", "-scale", "0.05", "-format", "ndjson"})
	}},
	{"curve_intruder_haswell.golden", func() error {
		return cmdCurve(bg, []string{"-w", "intruder", "-m", "Haswell",
			"-cores", "1-4", "-scale", "0.05"})
	}},
	{"diagnose_memcached_xeon20.golden", func() error {
		return cmdDiagnose(bg, []string{"-w", "memcached?skew=3", "-m", "Haswell",
			"-target", "Xeon20", "-scale", "0.05", "-soft"})
	}},
	// The JSON form is the exact /v1/diagnose response body — CI cmp's it
	// against a live coordinator's answer.
	{"diagnose_memcached_xeon20_json.golden", func() error {
		return cmdDiagnose(bg, []string{"-w", "memcached?skew=3", "-m", "Haswell",
			"-target", "Xeon20", "-scale", "0.05", "-soft", "-format", "json"})
	}},
	{"diagnose_intruder_haswell.golden", func() error {
		return cmdDiagnose(bg, []string{"-w", "intruder", "-m", "Haswell", "-scale", "0.05"})
	}},
	{"explore_memcached_haswell.golden", func() error {
		return cmdExplore(bg, []string{"-w", "memcached?skew=1.5,skew=3,skew=6,setpct=0,setpct=20",
			"-m", "Haswell", "-scale", "0.05"})
	}},
	// The JSON form is the exact /v1/explore response body.
	{"explore_memcached_haswell_json.golden", func() error {
		return cmdExplore(bg, []string{"-w", "memcached?skew=1.5,skew=3,skew=6,setpct=0,setpct=20",
			"-m", "Haswell", "-scale", "0.05", "-format", "json"})
	}},
}

func TestGoldenOutputs(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.file, func(t *testing.T) {
			got, err := captureStdout(t, c.run)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output is not byte-identical to the pre-service CLI.\n--- want\n%s\n--- got\n%s", want, got)
			}
		})
	}
}
