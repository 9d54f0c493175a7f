// Package machine describes the execution machines ESTIMA measures on and
// predicts for: core topology (sockets × chips × cores), clock frequency,
// cache and memory latencies, per-socket memory bandwidth and
// synchronization primitive costs. The four presets correspond to the four
// machines of the paper's evaluation (§4.2, §5.1).
//
// Presets are parameterized: Lookup accepts bounded override specs
// (`Xeon20?cores=16,membw=0.8`, internal/spec grammar) re-validated by
// Config.Validate, and names the resulting Config by the spec's canonical
// form so every cache and seed keyed on the machine name distinguishes
// overridden machines from their presets.
package machine

import (
	"fmt"

	"repro/internal/names"
	"repro/internal/spec"
)

// Arch identifies the processor family, which determines the set of backend
// stalled-cycle performance-counter events (paper Tables 2 and 3).
type Arch string

// Supported processor families.
const (
	AMD   Arch = "amd"
	Intel Arch = "intel"
)

// Config describes one machine. All latencies are in CPU cycles and all
// capacities in 64-byte cache lines.
type Config struct {
	// Name identifies the machine in reports ("Opteron", "Xeon20", ...).
	Name string
	// Arch selects the performance-counter event table.
	Arch Arch

	// Topology: Sockets × ChipsPerSocket × CoresPerChip cores in total.
	// The Opteron packages two NUMA chips per socket, which is why ESTIMA
	// sees NUMA effects inside a single socket there (paper §5.5).
	Sockets        int
	ChipsPerSocket int
	CoresPerChip   int

	// FreqGHz is the clock frequency, used to convert cycles to seconds
	// and to scale predictions across machines (paper §4.3).
	FreqGHz float64

	// Cache hit latencies.
	L1Lat, L2Lat, LLCLat int64
	// MemLat is DRAM access latency indexed by NUMA distance:
	// [0] same chip, [1] cross-chip same socket, [2] cross-socket.
	MemLat [3]int64
	// C2CLat is the cache-to-cache (coherence) transfer latency by the same
	// distance index.
	C2CLat [3]int64

	// Cache capacities in lines. L1 and L2 are private per core; LLC is
	// shared by all cores of one chip.
	L1Lines, L2Lines, LLCLines int

	// MemBWLinesPerCycle is the DRAM service rate of one chip's memory
	// controller in cache lines per cycle; demand beyond it queues. Chips
	// are the memory-controller domains (the Opteron packages two per
	// socket).
	MemBWLinesPerCycle float64

	// Synchronization costs. A pthread-style mutex pays a wake handoff
	// (futex) when contended; a test-and-set spinlock pays only a coherence
	// handoff. These model the §4.6 streamcluster fix.
	MutexAcquire int64 // uncontended mutex acquire/release pair
	MutexHandoff int64 // contended ownership transfer (wake path)
	SpinAcquire  int64 // uncontended spinlock acquire/release pair
	SpinHandoff  int64 // contended ownership transfer (cacheline ping)
}

// NumCores returns the total number of cores.
func (c *Config) NumCores() int {
	return c.Sockets * c.ChipsPerSocket * c.CoresPerChip
}

// NumChips returns the total number of chips (LLC domains).
func (c *Config) NumChips() int {
	return c.Sockets * c.ChipsPerSocket
}

// WindowCores is the measurement window of a request that asks for cores:
// cores itself, or one processor (OneProcessorCores) when cores is 0 or
// below, which is how a request leaves the window to its default.
func (c *Config) WindowCores(cores int) int {
	if cores <= 0 {
		return c.OneProcessorCores()
	}
	return cores
}

// OneProcessorCores returns the core count of a single processor (one
// socket's worth of chips), clamped to the machine size — ESTIMA's default
// measurement window ("measure on one processor, predict the machine").
func (c *Config) OneProcessorCores() int {
	n := c.ChipsPerSocket * c.CoresPerChip
	if max := c.NumCores(); n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Chip returns the global chip index of a core. Cores are numbered densely
// chip by chip, socket by socket, matching ESTIMA's "fill a socket first"
// placement policy (paper §4.1).
func (c *Config) Chip(core int) int {
	return core / c.CoresPerChip
}

// Socket returns the socket index of a core.
func (c *Config) Socket(core int) int {
	return core / (c.CoresPerChip * c.ChipsPerSocket)
}

// Distance returns the NUMA distance between two cores: 0 when they share a
// chip, 1 when they share a socket but not a chip, 2 across sockets.
func (c *Config) Distance(a, b int) int {
	switch {
	case c.Chip(a) == c.Chip(b):
		return 0
	case c.Socket(a) == c.Socket(b):
		return 1
	default:
		return 2
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Sockets <= 0 || c.ChipsPerSocket <= 0 || c.CoresPerChip <= 0:
		return fmt.Errorf("machine %q: non-positive topology", c.Name)
	case c.FreqGHz <= 0:
		return fmt.Errorf("machine %q: non-positive frequency", c.Name)
	case c.L1Lines <= 0 || c.L2Lines <= 0 || c.LLCLines <= 0:
		return fmt.Errorf("machine %q: non-positive cache capacity", c.Name)
	case c.MemBWLinesPerCycle <= 0:
		return fmt.Errorf("machine %q: non-positive memory bandwidth", c.Name)
	case c.Arch != AMD && c.Arch != Intel:
		return fmt.Errorf("machine %q: unknown arch %q", c.Name, c.Arch)
	}
	return nil
}

// Seconds converts a cycle count on this machine to seconds.
func (c *Config) Seconds(cycles float64) float64 {
	return cycles / (c.FreqGHz * 1e9)
}

// HaswellDesktop returns the measurement desktop of §4.3: an Intel Core i7
// Haswell with 4 cores at 3.4 GHz.
func HaswellDesktop() *Config {
	return &Config{
		Name:           "Haswell",
		Arch:           Intel,
		Sockets:        1,
		ChipsPerSocket: 1,
		CoresPerChip:   4,
		FreqGHz:        3.4,
		L1Lat:          4, L2Lat: 12, LLCLat: 34,
		MemLat:             [3]int64{190, 190, 190},
		C2CLat:             [3]int64{48, 48, 48},
		L1Lines:            512,    // 32 KB
		L2Lines:            4096,   // 256 KB
		LLCLines:           131072, // 8 MB shared
		MemBWLinesPerCycle: 0.15,   // ~33 GB/s at 3.4 GHz
		MutexAcquire:       60, MutexHandoff: 2600,
		SpinAcquire: 18, SpinHandoff: 110,
	}
}

// Opteron returns the 4-socket AMD Opteron 6172 of §3.2/§4.4: each socket
// packages two 6-core chips (48 cores total) at 2.1 GHz, so NUMA effects
// already appear within a single socket.
func Opteron() *Config {
	return &Config{
		Name:           "Opteron",
		Arch:           AMD,
		Sockets:        4,
		ChipsPerSocket: 2,
		CoresPerChip:   6,
		FreqGHz:        2.1,
		L1Lat:          3, L2Lat: 15, LLCLat: 40,
		MemLat:             [3]int64{150, 210, 280},
		C2CLat:             [3]int64{70, 120, 190},
		L1Lines:            1024,  // 64 KB
		L2Lines:            8192,  // 512 KB
		LLCLines:           98304, // 6 MB per chip
		MemBWLinesPerCycle: 0.12,  // ~16 GB/s per chip at 2.1 GHz
		MutexAcquire:       70, MutexHandoff: 3200,
		SpinAcquire: 20, SpinHandoff: 140,
	}
}

// Xeon20 returns the 2-socket Intel Xeon E5-2680 v2 of §4.2: 10 cores per
// socket at 2.8 GHz. A classic NUMA machine: single-socket measurements see
// no remote accesses at all (paper §5.5).
func Xeon20() *Config {
	return &Config{
		Name:           "Xeon20",
		Arch:           Intel,
		Sockets:        2,
		ChipsPerSocket: 1,
		CoresPerChip:   10,
		FreqGHz:        2.8,
		L1Lat:          4, L2Lat: 12, LLCLat: 38,
		MemLat:             [3]int64{180, 180, 270},
		C2CLat:             [3]int64{55, 55, 170},
		L1Lines:            512,    // 32 KB
		L2Lines:            4096,   // 256 KB
		LLCLines:           409600, // 25 MB per socket
		MemBWLinesPerCycle: 0.30,   // ~54 GB/s per socket at 2.8 GHz
		MutexAcquire:       60, MutexHandoff: 2800,
		SpinAcquire: 18, SpinHandoff: 120,
	}
}

// Xeon48 returns the 4-socket Intel Xeon E7-4830 v3 of §5.1: 12 cores per
// socket at 2.1 GHz, used as the target of the cross-machine predictions in
// Table 7.
func Xeon48() *Config {
	return &Config{
		Name:           "Xeon48",
		Arch:           Intel,
		Sockets:        4,
		ChipsPerSocket: 1,
		CoresPerChip:   12,
		FreqGHz:        2.1,
		L1Lat:          4, L2Lat: 12, LLCLat: 42,
		MemLat:             [3]int64{170, 170, 290},
		C2CLat:             [3]int64{52, 52, 185},
		L1Lines:            512,    // 32 KB
		L2Lines:            4096,   // 256 KB
		LLCLines:           491520, // 30 MB per socket
		MemBWLinesPerCycle: 0.28,
		MutexAcquire:       62, MutexHandoff: 3000,
		SpinAcquire: 18, SpinHandoff: 125,
	}
}

// Presets lists the built-in machines by name.
func Presets() []*Config {
	return []*Config{HaswellDesktop(), Opteron(), Xeon20(), Xeon48()}
}

// preset returns the named preset, or nil.
func preset(name string) *Config {
	for _, m := range Presets() {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// presetNames returns the preset names in Presets order.
func presetNames() []string {
	var known []string
	for _, m := range Presets() {
		known = append(known, m.Name)
	}
	return known
}

// Schema returns a preset's override-parameter schema. The defaults are
// the preset's own values, so every parameter elides from the canonical
// form unless it actually changes the machine — a bare preset name is its
// own canonical spec.
func Schema(m *Config) *spec.Schema {
	return &spec.Schema{
		Context: fmt.Sprintf("machine %q", m.Name),
		Params: []spec.Param{
			{Key: "cores", Kind: spec.Int, Default: float64(m.NumCores()), Min: 1, Max: 1024,
				Help: "total cores (split evenly across the chips)"},
			{Key: "sockets", Kind: spec.Int, Default: float64(m.Sockets), Min: 1, Max: 16,
				Help: "socket count"},
			{Key: "freq", Kind: spec.Float, Default: m.FreqGHz, Min: 0.5, Max: 6,
				Help: "clock frequency (GHz)"},
			{Key: "membw", Kind: spec.Float, Default: 1, Min: 0.1, Max: 8,
				Help: "memory-bandwidth factor relative to the preset"},
		},
	}
}

// Lookup resolves a machine spec — a preset name or bounded overrides like
// `Xeon20?cores=16,membw=0.8` — to a Config re-validated by
// Config.Validate. The returned Config's Name is the spec's canonical form
// (defaults elided), so overridden machines key stores, fit caches and
// simulator seeds distinctly while bare preset names stay byte-identical
// to the pre-spec presets.
func Lookup(name string) (*Config, error) {
	sp, err := spec.Parse(name)
	if err != nil {
		return nil, fmt.Errorf("unknown machine %q: %v", name, err)
	}
	m := preset(sp.Family)
	if m == nil {
		return nil, fmt.Errorf("unknown machine %q%s", sp.Family, names.Suggestion(sp.Family, presetNames()))
	}
	schema := Schema(m)
	vals, err := schema.Resolve(sp)
	if err != nil {
		return nil, err
	}
	// The effective default of `cores` depends on `sockets`: without an
	// explicit count, a socket override keeps the per-chip shape and
	// scales the total. Canonicalization must use that same effective
	// default — `Xeon20?cores=40,sockets=4` IS `Xeon20?sockets=4` (one
	// canonical name), while `Xeon20?cores=20,sockets=4` is a different
	// machine and must keep its cores key — or equivalent machines would
	// key stores, fit caches and sim seeds apart, and distinct ones
	// together.
	sockets := vals.GetInt("sockets")
	derivedCores := sockets * m.ChipsPerSocket * m.CoresPerChip
	cores := vals.GetInt("cores")
	if !vals.Explicit("cores") {
		cores = derivedCores
	}
	vals.Set("cores", float64(cores))
	canonSchema := &spec.Schema{Context: schema.Context,
		Params: append([]spec.Param(nil), schema.Params...)}
	for i := range canonSchema.Params {
		if canonSchema.Params[i].Key == "cores" {
			canonSchema.Params[i].Default = float64(derivedCores)
		}
	}
	canonical := canonSchema.Canonical(m.Name, vals)
	if canonical == m.Name {
		return m, nil
	}
	// Apply overrides: topology first (sockets, then the total core count
	// split across the resulting chips), then the scalar knobs.
	m.Sockets = sockets
	chips := m.NumChips()
	if cores%chips != 0 {
		return nil, fmt.Errorf("machine %q: %d cores do not split evenly across %d chips",
			canonical, cores, chips)
	}
	m.CoresPerChip = cores / chips
	m.FreqGHz = vals.Get("freq")
	m.MemBWLinesPerCycle *= vals.Get("membw")
	m.Name = canonical
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
