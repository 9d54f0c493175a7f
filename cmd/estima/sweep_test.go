package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// bg is the background context shared by tests that don't exercise
// cancellation.
var bg = context.Background()

// captureStdout runs fn with os.Stdout redirected to a buffer.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	return <-done, ferr
}

// TestSweepFullMatrixThroughWorkerPool runs the complete default workload
// set against a small machine through the bounded pool, then re-runs it warm
// and checks every cell was answered from the measurement store.
func TestSweepFullMatrixThroughWorkerPool(t *testing.T) {
	cache := t.TempDir()
	args := []string{"-m", "Haswell", "-scale", "0.05", "-workers", "3",
		"-cache", cache, "-format", "csv"}

	cold, err := captureStdout(t, func() error { return cmdSweep(bg, args) })
	if err != nil {
		t.Fatal(err)
	}
	wls := workloads.Table4Names()
	for _, wl := range wls {
		if !strings.Contains(cold, wl+",Haswell,") {
			t.Errorf("sweep output missing matrix cell for %s", wl)
		}
	}
	if n := strings.Count(cold, ",ok"); n != len(wls) {
		t.Errorf("%d cells ok, want %d:\n%s", n, len(wls), cold)
	}
	st, err := store.Open(cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range wls {
		k := store.Key{Workload: wl, Machine: "Haswell", MaxCores: 4, Scale: 0.05, Engine: sim.EngineVersion}
		if _, ok := st.Get(bg, k); !ok {
			t.Errorf("store lacks %s's 1..4 window", wl)
		}
	}

	warm, err := captureStdout(t, func() error { return cmdSweep(bg, args) })
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(warm, ",hit,ok"); n != len(wls) {
		t.Errorf("warm sweep had %d cache hits, want %d:\n%s", n, len(wls), warm)
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	if err := cmdSweep(bg, []string{"-format", "xml"}); err == nil {
		t.Error("bad format should error")
	}
	if err := cmdSweep(bg, []string{"-w", "no-such-workload"}); err == nil {
		t.Error("unknown workload should error")
	}
	if err := cmdSweep(bg, []string{"-m", "no-such-machine"}); err == nil {
		t.Error("unknown machine should error")
	}
}

func TestSweepCellDefaultsMeasCoresToOneProcessor(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Sweep(bg, service.SweepRequest{
		Workloads: []string{"blackscholes"},
		Machines:  []string{"Xeon20"},
		Scale:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(resp.Cells))
	}
	c := resp.Cells[0]
	if c.Error != "" {
		t.Fatal(c.Error)
	}
	m := machine.Xeon20()
	if c.MeasCores != m.ChipsPerSocket*m.CoresPerChip {
		t.Errorf("meas cores = %d, want one processor (%d)", c.MeasCores, m.ChipsPerSocket*m.CoresPerChip)
	}
	if c.Stop < 1 || c.Stop > m.NumCores() || c.TimeFull <= 0 {
		t.Errorf("implausible prediction: stop=%d t=%g", c.Stop, c.TimeFull)
	}
	if c.CacheHit {
		t.Error("store-less sweep cannot hit")
	}
}
