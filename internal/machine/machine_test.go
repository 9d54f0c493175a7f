package machine

import (
	"strings"
	"testing"
	"testing/quick"
)

// mustLookup resolves a machine spec or fails the test.
func mustLookup(t *testing.T, name string) *Config {
	t.Helper()
	m, err := Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	return m
}

func TestPresetsValidate(t *testing.T) {
	for _, m := range Presets() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestPresetCoreCounts(t *testing.T) {
	cases := map[string]int{
		"Haswell": 4,
		"Opteron": 48,
		"Xeon20":  20,
		"Xeon48":  48,
	}
	for name, want := range cases {
		m := mustLookup(t, name)
		if got := m.NumCores(); got != want {
			t.Errorf("%s cores = %d, want %d", name, got, want)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown machine should fail Lookup")
	}
}

func TestLookupOverrides(t *testing.T) {
	// The ISSUE's flagship example: a 16-core Xeon20 at 80% bandwidth.
	m := mustLookup(t, "Xeon20?cores=16,membw=0.8")
	if m.Name != "Xeon20?cores=16,membw=0.8" {
		t.Errorf("Name = %q", m.Name)
	}
	if m.NumCores() != 16 || m.CoresPerChip != 8 || m.Sockets != 2 {
		t.Errorf("topology = %d sockets x %d chips x %d cores", m.Sockets, m.ChipsPerSocket, m.CoresPerChip)
	}
	base := Xeon20()
	if got, want := m.MemBWLinesPerCycle, base.MemBWLinesPerCycle*0.8; got != want {
		t.Errorf("membw = %g, want %g", got, want)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("overridden machine fails Validate: %v", err)
	}

	// All-defaults specs canonicalize to the bare preset, byte-identical.
	for _, s := range []string{"Xeon20", "Xeon20?cores=20,membw=1", "Xeon20?freq=2.8,sockets=2"} {
		got := mustLookup(t, s)
		if *got != *base {
			t.Errorf("Lookup(%q) differs from the preset: %+v", s, got)
		}
	}

	// A socket override without an explicit core count keeps the per-chip
	// shape: half the sockets, half the cores.
	half := mustLookup(t, "Opteron?sockets=2")
	if half.NumCores() != 24 || half.CoresPerChip != 6 || half.NumChips() != 4 {
		t.Errorf("Opteron?sockets=2 = %d cores over %d chips", half.NumCores(), half.NumChips())
	}
	// Growing a machine is legitimate too — ESTIMA predicts bigger boxes.
	big := mustLookup(t, "Xeon48?sockets=8")
	if big.NumCores() != 96 {
		t.Errorf("Xeon48?sockets=8 = %d cores, want 96", big.NumCores())
	}

	for _, c := range []struct{ in, wantErr string }{
		{"Xeon20?cores=15", "do not split evenly across 2 chips"},
		{"Xeon20?coers=16", `unknown parameter "coers" for machine "Xeon20" (did you mean "cores"?)`},
		{"Xeon2?cores=16", `unknown machine "Xeon2" (did you mean "Xeon20"?)`},
		{"Xeon20?membw=99", "outside [0.1, 8]"},
		{"Xeon20?freq=0", "outside [0.5, 6]"},
		{"Xeon20?cores=8,cores=16", "grids are only valid in sweeps"},
		{"Xeon20?cores=8.5", "not an integer"},
	} {
		_, err := Lookup(c.in)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Lookup(%q) error = %v, want %q", c.in, err, c.wantErr)
		}
	}

	// Canonicalization is order- and formatting-insensitive.
	a := mustLookup(t, "Xeon20?membw=0.80,cores=16")
	if a.Name != "Xeon20?cores=16,membw=0.8" {
		t.Errorf("canonical Name = %q", a.Name)
	}
}

// TestLookupCoresSocketsInterplay pins the identity rule when both
// topology knobs appear: the effective default of `cores` is the
// post-sockets total, so equivalent machines share one canonical name and
// distinct machines never alias.
func TestLookupCoresSocketsInterplay(t *testing.T) {
	// Spelling out the derived total is the same machine as omitting it.
	a := mustLookup(t, "Xeon20?sockets=4")
	b := mustLookup(t, "Xeon20?cores=40,sockets=4")
	if a.Name != "Xeon20?sockets=4" || b.Name != a.Name {
		t.Errorf("equivalent machines named %q and %q", a.Name, b.Name)
	}
	if *a != *b {
		t.Errorf("equivalent specs built different machines: %+v vs %+v", a, b)
	}
	if a.NumCores() != 40 {
		t.Errorf("Xeon20?sockets=4 = %d cores, want 40", a.NumCores())
	}

	// Pinning cores at the pristine preset's total while growing sockets
	// is a DIFFERENT machine and must keep its cores key.
	c := mustLookup(t, "Xeon20?cores=20,sockets=4")
	if c.Name != "Xeon20?cores=20,sockets=4" {
		t.Errorf("distinct machine canonicalizes to %q", c.Name)
	}
	if c.NumCores() != 20 || c.Sockets != 4 || c.CoresPerChip != 5 {
		t.Errorf("topology = %d sockets x %d cores/chip (%d total)", c.Sockets, c.CoresPerChip, c.NumCores())
	}
	if c.Name == a.Name {
		t.Error("20-core and 40-core machines share a canonical name")
	}

	// Canonical forms are fixed points: re-resolving them changes nothing.
	for _, m := range []*Config{a, b, c} {
		again := mustLookup(t, m.Name)
		if again.Name != m.Name || *again != *m {
			t.Errorf("canonical %q is not a fixed point (got %q)", m.Name, again.Name)
		}
	}
}

func TestOneProcessorCores(t *testing.T) {
	cases := map[string]int{
		"Haswell": 4,  // single chip: the whole machine
		"Opteron": 12, // 2 chips x 6 cores per socket
		"Xeon20":  10,
		"Xeon48":  12,
	}
	for name, want := range cases {
		if got := mustLookup(t, name).OneProcessorCores(); got != want {
			t.Errorf("%s one processor = %d, want %d", name, got, want)
		}
	}
	for _, m := range Presets() {
		if n := m.OneProcessorCores(); n < 1 || n > m.NumCores() {
			t.Errorf("%s one processor = %d out of range", m.Name, n)
		}
	}
}

// A window of 0 cores or below is one processor; any other stands.
func TestWindowCores(t *testing.T) {
	m := mustLookup(t, "Opteron")
	for requested, want := range map[int]int{0: 12, -3: 12, 1: 1, 30: 30} {
		if got := m.WindowCores(requested); got != want {
			t.Errorf("WindowCores(%d) = %d, want %d", requested, got, want)
		}
	}
}

func TestOpteronTopology(t *testing.T) {
	m := Opteron()
	if m.NumChips() != 8 {
		t.Errorf("chips = %d, want 8", m.NumChips())
	}
	// Cores 0-5 on chip 0, 6-11 on chip 1, both on socket 0.
	if m.Chip(0) != 0 || m.Chip(5) != 0 || m.Chip(6) != 1 || m.Chip(11) != 1 {
		t.Error("chip mapping wrong")
	}
	if m.Socket(0) != 0 || m.Socket(11) != 0 || m.Socket(12) != 1 || m.Socket(47) != 3 {
		t.Error("socket mapping wrong")
	}
	// NUMA inside a socket: chip 0 vs chip 1 of socket 0.
	if d := m.Distance(0, 6); d != 1 {
		t.Errorf("cross-chip same-socket distance = %d, want 1", d)
	}
	if d := m.Distance(0, 5); d != 0 {
		t.Errorf("same-chip distance = %d, want 0", d)
	}
	if d := m.Distance(0, 12); d != 2 {
		t.Errorf("cross-socket distance = %d, want 2", d)
	}
}

func TestXeon20NoIntraSocketNUMA(t *testing.T) {
	m := Xeon20()
	// All cores of socket 0 share one chip: distance 0 inside the socket.
	for c := 1; c < 10; c++ {
		if d := m.Distance(0, c); d != 0 {
			t.Errorf("distance(0,%d) = %d, want 0", c, d)
		}
	}
	if d := m.Distance(0, 10); d != 2 {
		t.Errorf("cross-socket distance = %d, want 2", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	m := Opteron()
	n := m.NumCores()
	f := func(a, b uint8) bool {
		x, y := int(a)%n, int(b)%n
		d := m.Distance(x, y)
		if d != m.Distance(y, x) {
			return false // symmetry
		}
		if x == y && d != 0 {
			return false // identity
		}
		return d >= 0 && d <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeconds(t *testing.T) {
	m := Opteron() // 2.1 GHz
	if got := m.Seconds(2.1e9); got != 1.0 {
		t.Errorf("Seconds(2.1e9) = %v, want 1", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []*Config{
		{Name: "a", Arch: AMD, Sockets: 0, ChipsPerSocket: 1, CoresPerChip: 1, FreqGHz: 1, L1Lines: 1, L2Lines: 1, LLCLines: 1, MemBWLinesPerCycle: 1},
		{Name: "b", Arch: AMD, Sockets: 1, ChipsPerSocket: 1, CoresPerChip: 1, FreqGHz: 0, L1Lines: 1, L2Lines: 1, LLCLines: 1, MemBWLinesPerCycle: 1},
		{Name: "c", Arch: AMD, Sockets: 1, ChipsPerSocket: 1, CoresPerChip: 1, FreqGHz: 1, L1Lines: 0, L2Lines: 1, LLCLines: 1, MemBWLinesPerCycle: 1},
		{Name: "d", Arch: AMD, Sockets: 1, ChipsPerSocket: 1, CoresPerChip: 1, FreqGHz: 1, L1Lines: 1, L2Lines: 1, LLCLines: 1, MemBWLinesPerCycle: 0},
		{Name: "e", Arch: "sparc", Sockets: 1, ChipsPerSocket: 1, CoresPerChip: 1, FreqGHz: 1, L1Lines: 1, L2Lines: 1, LLCLines: 1, MemBWLinesPerCycle: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should fail validation", c.Name)
		}
	}
}
