package counters

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestBackendEventsMatchPaperTables(t *testing.T) {
	amd := BackendEvents(machine.AMD)
	wantAMD := []string{"0D2h", "0D5h", "0D6h", "0D7h", "0D8h"}
	if len(amd) != len(wantAMD) {
		t.Fatalf("AMD events = %d, want %d", len(amd), len(wantAMD))
	}
	for i, e := range amd {
		if e.Code != wantAMD[i] {
			t.Errorf("AMD event %d = %s, want %s", i, e.Code, wantAMD[i])
		}
		if e.Frontend {
			t.Errorf("AMD backend event %s marked frontend", e.Code)
		}
	}
	intel := BackendEvents(machine.Intel)
	wantIntel := []string{"0487h", "01A2h", "04A2h", "08A2h", "10A2h"}
	for i, e := range intel {
		if e.Code != wantIntel[i] {
			t.Errorf("Intel event %d = %s, want %s", i, e.Code, wantIntel[i])
		}
	}
}

func TestEverySourceCoveredByBackendOrFrontend(t *testing.T) {
	for _, arch := range []machine.Arch{machine.AMD, machine.Intel} {
		covered := map[Source]bool{}
		for _, e := range BackendEvents(arch) {
			for _, s := range e.Sources {
				covered[s] = true
			}
		}
		for _, e := range FrontendEvents(arch) {
			for _, s := range e.Sources {
				covered[s] = true
			}
		}
		for s := Source(0); s < NumSources; s++ {
			if !covered[s] {
				t.Errorf("%s: source %v not counted by any event", arch, s)
			}
		}
	}
}

func TestSourceString(t *testing.T) {
	if SrcROB.String() != "rob-full" {
		t.Errorf("SrcROB = %q", SrcROB.String())
	}
	if !strings.Contains(Source(99).String(), "99") {
		t.Error("out-of-range source should include its number")
	}
}

func TestSampleTotals(t *testing.T) {
	s := Sample{
		Cores: 4,
		HW:    map[string]float64{"a": 10, "b": 20},
		Soft:  map[string]float64{SoftLockSpin: 5},
		Frontend: map[string]float64{
			"FE01h": 3,
		},
	}
	if s.TotalBackend() != 30 {
		t.Errorf("TotalBackend = %v", s.TotalBackend())
	}
	if s.TotalSoft() != 5 {
		t.Errorf("TotalSoft = %v", s.TotalSoft())
	}
	if s.TotalFrontend() != 3 {
		t.Errorf("TotalFrontend = %v", s.TotalFrontend())
	}
}

func makeSeries() *Series {
	return &Series{
		Workload: "w", Machine: "m",
		Samples: []Sample{
			{Cores: 2, Seconds: 1.0, HW: map[string]float64{"e1": 4, "e2": 6}, Soft: map[string]float64{SoftTxAborted: 2}, Frontend: map[string]float64{"FE01h": 2}},
			{Cores: 1, Seconds: 2.0, HW: map[string]float64{"e1": 1, "e2": 2}, Soft: map[string]float64{SoftTxAborted: 1}, Frontend: map[string]float64{"FE01h": 1}},
		},
	}
}

func TestSeriesSortAndAccessors(t *testing.T) {
	s := makeSeries()
	s.Sort()
	if s.Samples[0].Cores != 1 || s.Samples[1].Cores != 2 {
		t.Fatal("sort failed")
	}
	if got := s.Cores(); got[0] != 1 || got[1] != 2 {
		t.Errorf("Cores = %v", got)
	}
	if got := s.Times(); got[0] != 2 || got[1] != 1 {
		t.Errorf("Times = %v", got)
	}
	if got := s.Event("e1"); got[0] != 1 || got[1] != 4 {
		t.Errorf("Event e1 = %v", got)
	}
	if got := s.SoftCategory(SoftTxAborted); got[0] != 1 || got[1] != 2 {
		t.Errorf("Soft = %v", got)
	}
	codes := s.EventCodes()
	if len(codes) != 2 || codes[0] != "e1" || codes[1] != "e2" {
		t.Errorf("EventCodes = %v", codes)
	}
	names := s.SoftNames()
	if len(names) != 1 || names[0] != SoftTxAborted {
		t.Errorf("SoftNames = %v", names)
	}
}

func TestStallsPerCore(t *testing.T) {
	s := makeSeries()
	s.Sort()
	// 1 core: backend 3 → 3; +soft 1 → 4; +frontend 1 → 5.
	hw := s.StallsPerCore(false, false)
	if hw[0] != 3 {
		t.Errorf("hw-only stalls/core = %v", hw[0])
	}
	soft := s.StallsPerCore(true, false)
	if soft[0] != 4 {
		t.Errorf("hw+soft stalls/core = %v", soft[0])
	}
	all := s.StallsPerCore(true, true)
	if all[0] != 5 {
		t.Errorf("all stalls/core = %v", all[0])
	}
	// 2 cores: backend 10/2 = 5.
	if hw[1] != 5 {
		t.Errorf("hw-only stalls/core at 2 = %v", hw[1])
	}
}

func TestSoftCategoriesStable(t *testing.T) {
	want := []string{SoftLockSpin, SoftBarrierWait, SoftTxAborted, SoftTxBackoff}
	got := SoftCategories()
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cat %d = %q, want %q", i, got[i], want[i])
		}
	}
}
