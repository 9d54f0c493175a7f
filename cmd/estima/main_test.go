package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
)

// captureStderr runs fn with os.Stderr redirected to a buffer.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	return <-done
}

// TestRunExitCodes pins the dispatch contract: 0 on success with a silent
// stderr, 1 on execution errors, 2 with usage on stderr for unknown
// subcommands and flag-parse failures alike. No row simulates anything: a
// rejected request must fail before the simulator runs.
func TestRunExitCodes(t *testing.T) {
	var sims atomic.Int64
	collectSample = func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		sims.Add(1)
		return sim.Collect(w, m, cores, scale)
	}
	t.Cleanup(func() { collectSample = nil })
	cases := []struct {
		name       string
		args       []string
		code       int
		wantStderr string // substring; "" asserts stderr is empty
	}{
		{"no command", nil, 2, "usage: estima"},
		{"unknown command", []string{"frobnicate"}, 2, "unknown command"},
		{"unknown command usage", []string{"frobnicate"}, 2, "usage: estima"},
		{"bad flag", []string{"list", "-no-such-flag"}, 2, "flag provided but not defined"},
		{"bad flag value", []string{"predict", "-boot", "x"}, 2, "invalid value"},
		{"subcommand help", []string{"sweep", "-h"}, 0, "-format"},
		{"execution error", []string{"predict", "-w", "no-such-workload", "-m", "Haswell"}, 1, "unknown workload"},
		{"typo suggestion", []string{"predict", "-w", "intrduer", "-m", "Haswell"}, 1, `did you mean "intruder"?`},
		{"param typo suggestion", []string{"predict", "-w", "memcached?skw=3", "-m", "Haswell"}, 1, `did you mean "skew"?`},
		{"param out of bounds", []string{"predict", "-w", "memcached?skew=99", "-m", "Haswell"}, 1, "outside [1, 8]"},
		{"machine param typo", []string{"predict", "-w", "intruder", "-m", "Haswell?coers=2"}, 1, `did you mean "cores"?`},
		{"bad cores caught client-side", []string{"curve", "-w", "intruder", "-m", "Haswell", "-cores", "x"}, 1, "bad core count"},
		{"diagnose typo suggestion", []string{"diagnose", "-w", "intrduer", "-m", "Haswell"}, 1, `did you mean "intruder"?`},
		{"diagnose bad format", []string{"diagnose", "-w", "intruder", "-m", "Haswell", "-format", "xml"}, 1, "must be table or json"},
		{"predict non-finite ci", []string{"predict", "-w", "genome", "-m", "Haswell", "-scale", "0.05", "-boot", "10", "-ci", "NaN"}, 1, "-ci NaN out of range (0, 100)"},
		{"sweep non-finite ci", []string{"sweep", "-w", "genome", "-m", "Haswell", "-scale", "0.05", "-boot", "5", "-ci", "NaN"}, 1, "-ci NaN out of range (0, 100)"},
		{"sweep non-finite scale", []string{"sweep", "-w", "genome", "-m", "Haswell", "-scale", "NaN"}, 1, "non-finite scale NaN"},
		{"bottleneck non-finite scale", []string{"bottleneck", "-w", "intruder", "-m", "Haswell", "-scale", "NaN"}, 1, "non-finite scale NaN"},
		{"predict scale above limit", []string{"predict", "-w", "intruder", "-m", "Haswell", "-scale", "9"}, 1, "scale 9 above the limit of 8"},
		{"compared predict scale above limit", []string{"predict", "-w", "intruder", "-m", "Haswell", "-scale", "0.05", "-datascale", "200"}, 1, "comparing at scale × data scale: scale 10 above the limit of 8"},
		{"sweep scale above limit", []string{"sweep", "-w", "genome", "-m", "Haswell", "-scale", "9"}, 1, "scale 9 above the limit of 8"},
		{"bottleneck cores beyond machine", []string{"bottleneck", "-w", "intruder", "-m", "Haswell", "-meascores", "99"}, 1, `core range "1-99" exceeds the machine's 4 cores`},
		{"success", []string{"list"}, 0, ""},
		{"help", []string{"help"}, 0, ""},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var code int
			var stderr string
			stdout, err := captureStdout(t, func() error {
				stderr = captureStderr(t, func() { code = run(bg, c.args) })
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Errorf("run(%v) = %d, want %d (stderr: %q)", c.args, code, c.code, stderr)
			}
			if n := sims.Swap(0); n != 0 {
				t.Errorf("run(%v) simulated %d samples, want 0", c.args, n)
			}
			if c.wantStderr == "" {
				if stderr != "" {
					t.Errorf("success path wrote to stderr: %q", stderr)
				}
			} else if !strings.Contains(stderr, c.wantStderr) {
				t.Errorf("stderr %q does not contain %q", stderr, c.wantStderr)
			}
			// Usage errors must show usage on stderr, never on stdout.
			if code == 2 && strings.Contains(stdout, "usage: estima") {
				t.Errorf("usage went to stdout on a usage error")
			}
		})
	}
}

// `estima help` is a success: usage goes to stdout, stderr stays silent.
func TestHelpPrintsUsageToStdout(t *testing.T) {
	stdout, err := captureStdout(t, func() error {
		if code := run(bg, []string{"help"}); code != 0 {
			t.Errorf("help exited %d", code)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "usage: estima") || !strings.Contains(stdout, "serve") {
		t.Errorf("help output: %q", stdout)
	}
}
