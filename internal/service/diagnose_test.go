package service

import (
	"bytes"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestWarmDiagnoseDoesNoNewFits is the tentpole's planner acceptance: a
// diagnose of a previously predicted scenario is pure post-processing — it
// assembles the identical options fingerprint, lands on the identical
// fit key, and therefore performs zero new fits, zero new collections,
// and one fit-memo hit.
func TestWarmDiagnoseDoesNoNewFits(t *testing.T) {
	var sims atomic.Int64
	svc := newTestService(t, Config{CollectSample: countingCollector(&sims)})
	var fits atomic.Int64
	svc.fitHook = func(FitKey) { fits.Add(1) }

	if _, err := svc.Predict(bg, PredictRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	computedBefore, hitsBefore := svc.FitCacheStats()
	fitsBefore, simsBefore := fits.Load(), sims.Load()

	resp, err := svc.Diagnose(bg, DiagnoseRequest{Workload: "intruder", Machine: "Haswell", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Categories) == 0 || resp.Killer == "" {
		t.Fatalf("diagnosis is empty: %+v", resp)
	}

	computedAfter, hitsAfter := svc.FitCacheStats()
	if computedAfter != computedBefore {
		t.Errorf("warm diagnose computed %d new fit artifacts, want 0", computedAfter-computedBefore)
	}
	if fits.Load() != fitsBefore {
		t.Errorf("warm diagnose ran %d fits, want 0", fits.Load()-fitsBefore)
	}
	if sims.Load() != simsBefore {
		t.Errorf("warm diagnose ran the simulator %d times, want 0", sims.Load()-simsBefore)
	}
	if hitsAfter <= hitsBefore {
		t.Errorf("warm diagnose recorded no fit-memo hit (before=%d after=%d)", hitsBefore, hitsAfter)
	}
}

// TestDiagnoseGetMatchesPostBytes: the GET verb is a pure spelling of the
// POST body — same request, same response, byte for byte.
func TestDiagnoseGetMatchesPostBytes(t *testing.T) {
	svc := newTestService(t, Config{})
	h := NewHandler(svc, ServerConfig{})

	postBody := `{"workload":"memcached?skew=3","machine":"Haswell","scale":0.05,"soft":true}`
	ps, pb := do(t, h, http.MethodPost, "/v1/diagnose", postBody)
	if ps != http.StatusOK {
		t.Fatalf("POST status %d: %s", ps, pb)
	}
	gs, gb := do(t, h, http.MethodGet, "/v1/diagnose?workload=memcached%3Fskew%3D3&machine=Haswell&scale=0.05&soft=true", "")
	if gs != http.StatusOK {
		t.Fatalf("GET status %d: %s", gs, gb)
	}
	if !bytes.Equal(pb, gb) {
		t.Errorf("GET and POST bodies differ.\n--- POST\n%s\n--- GET\n%s", pb, gb)
	}
}

// TestDiagnoseValidation pins the error surface: unknown names answer 400
// with the registry's did-you-mean bytes, malformed query scalars answer
// 400 naming the parameter, and bad versions are rejected.
func TestDiagnoseValidation(t *testing.T) {
	h := newTestHandler(t, ServerConfig{})
	cases := []struct {
		name, method, path, body, wantSub string
	}{
		{"unknown workload", http.MethodPost, "/v1/diagnose",
			`{"workload":"intrudr","machine":"Haswell"}`, "did you mean"},
		{"unknown machine", http.MethodPost, "/v1/diagnose",
			`{"workload":"intruder","machine":"Haswel"}`, "did you mean"},
		{"bad version", http.MethodPost, "/v1/diagnose",
			`{"api_version":"v9","workload":"intruder","machine":"Haswell"}`, "unsupported api version"},
		{"unknown field", http.MethodPost, "/v1/diagnose",
			`{"wrkload":"intruder"}`, "unknown field"},
		{"bad get scale", http.MethodGet, "/v1/diagnose?workload=intruder&machine=Haswell&scale=lots", "", "bad scale"},
		{"bad get meas_cores", http.MethodGet, "/v1/diagnose?workload=intruder&machine=Haswell&meas_cores=x", "", "bad meas_cores"},
		{"bad get soft", http.MethodGet, "/v1/diagnose?workload=intruder&machine=Haswell&soft=maybe", "", "bad soft"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := do(t, h, c.method, c.path, c.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, body)
			}
			if !strings.Contains(string(body), c.wantSub) {
				t.Errorf("error body %q does not mention %q", body, c.wantSub)
			}
		})
	}
}

// TestDiagnoseReliefComesFromOwnSchema: suggested knobs are drawn from the
// diagnosed workload's own parameter schema — a workload without parameters
// gets no suggestion, and a parameterized one is only ever offered its own
// keys.
func TestDiagnoseReliefComesFromOwnSchema(t *testing.T) {
	if knob := reliefFor("intruder", "sync", 50); knob == nil || knob.Param != "batch" {
		t.Errorf("reliefFor(intruder, sync) = %+v, want the batch knob", knob)
	}
	if knob := reliefFor("intruder?batch=4", "sync", 50); knob == nil || knob.Param != "batch" {
		t.Errorf("reliefFor over a parameterized spec = %+v, want the batch knob", knob)
	}
	if knob := reliefFor("memcached?skew=3", "memory", 50); knob == nil || knob.Param != "skew" {
		t.Errorf("reliefFor(memcached, memory) = %+v, want the skew knob", knob)
	}
	if knob := reliefFor("nonexistent-workload", "sync", 50); knob != nil {
		t.Errorf("reliefFor on an unknown family = %+v, want nil", knob)
	}
}

// TestDiagnoseReliefRankedByDelta: among the knobs that relieve the killer's
// class, the one with the largest addressable share wins, and the estimate
// scales with the killer's share. memcached's memory relievers are skew
// (headroom (2-1)/7 of its axis), setpct (5/100) and valsize ((550-64)/16320):
// skew's headroom dominates, so it must win despite ties in class.
func TestDiagnoseReliefRankedByDelta(t *testing.T) {
	knob := reliefFor("memcached", "memory", 70)
	if knob == nil || knob.Param != "skew" {
		t.Fatalf("reliefFor(memcached, memory, 70) = %+v, want skew", knob)
	}
	if want := 10.0; knob.DeltaPct != want { // 70 * (2-1)/7
		t.Errorf("skew DeltaPct = %g, want %g", knob.DeltaPct, want)
	}
	half := reliefFor("memcached", "memory", 35)
	if half == nil || half.DeltaPct != 5 {
		t.Errorf("DeltaPct does not scale with the killer share: %+v", half)
	}
}
