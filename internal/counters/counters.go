// Package counters defines the performance-counter schema ESTIMA consumes:
// the internal stall sources the simulator attributes cycles to, the
// per-architecture backend stalled-cycle events with the paper's exact event
// codes (Tables 2 and 3), software stall categories, and the Sample/Series
// measurement containers that flow through the prediction pipeline.
package counters

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Source is an internal stalled-cycle source. The simulator attributes every
// stalled cycle to exactly one source; per-architecture events then
// aggregate sources into the counters a real PMU would expose.
type Source int

// Internal stall sources.
const (
	// SrcBranchAbort covers pipeline flushes from branch mispredictions.
	SrcBranchAbort Source = iota
	// SrcROB covers reorder-buffer-full stalls from long-latency (DRAM)
	// loads that exhaust out-of-order resources.
	SrcROB
	// SrcRS covers reservation-station/dependency stalls from mid-latency
	// (L2/LLC) accesses and dependent instruction chains.
	SrcRS
	// SrcFPU covers floating-point scheduler saturation.
	SrcFPU
	// SrcLS covers load-store unit stalls: coherence transfers,
	// invalidations and memory-ordering drains.
	SrcLS
	// SrcStoreBuf covers store-buffer-full stalls from bursts of stores.
	SrcStoreBuf
	// SrcFrontend covers instruction-fetch stalls (icache misses, fetch
	// after mispredict). Frontend stalls are measured but excluded from the
	// backend set ESTIMA extrapolates (paper §5.2).
	SrcFrontend
	// NumSources is the number of stall sources.
	NumSources
)

var sourceNames = [NumSources]string{
	"branch-abort", "rob-full", "rs-full", "fpu-full", "ls-full",
	"store-buffer", "frontend",
}

// String returns the source's short name.
func (s Source) String() string {
	if s < 0 || s >= NumSources {
		return fmt.Sprintf("source(%d)", int(s))
	}
	return sourceNames[s]
}

// Event is one hardware performance-counter event. Values for an event are
// the sum of the cycles attributed to its Sources.
type Event struct {
	// Code is the vendor event code as printed in the paper
	// (e.g. "0D5h" for the Opteron reorder-buffer stall event).
	Code string
	// Name is the vendor description.
	Name string
	// Sources lists the internal stall sources this event counts.
	Sources []Source
	// Frontend marks fetch-stage events, which ESTIMA excludes by default.
	Frontend bool
}

// amdEvents is the AMD family 10h backend set (paper Table 2).
var amdEvents = []Event{
	{Code: "0D2h", Name: "Dispatch Stall for Branch Abort to Retire", Sources: []Source{SrcBranchAbort}},
	{Code: "0D5h", Name: "Dispatch Stall for Reorder Buffer Full", Sources: []Source{SrcROB}},
	{Code: "0D6h", Name: "Dispatch Stall for Reservation Station Full", Sources: []Source{SrcRS}},
	{Code: "0D7h", Name: "Dispatch Stall for FPU Full", Sources: []Source{SrcFPU}},
	{Code: "0D8h", Name: "Dispatch Stall for LS Full", Sources: []Source{SrcLS, SrcStoreBuf}},
}

// intelEvents is the Intel backend set (paper Table 3).
var intelEvents = []Event{
	{Code: "0487h", Name: "Stalled cycles due to IQ full", Sources: []Source{SrcBranchAbort}},
	{Code: "01A2h", Name: "Cycles allocation stalled due to resource-related reasons", Sources: []Source{SrcLS}},
	{Code: "04A2h", Name: "No eligible RS entry available", Sources: []Source{SrcRS, SrcFPU}},
	{Code: "08A2h", Name: "No store buffers available", Sources: []Source{SrcStoreBuf}},
	{Code: "10A2h", Name: "Re-order buffer full", Sources: []Source{SrcROB}},
}

// frontendEvents extends either set for the §5.2 frontend experiment.
var frontendEvents = []Event{
	{Code: "FE01h", Name: "Instruction fetch stall", Sources: []Source{SrcFrontend}, Frontend: true},
}

// BackendEvents returns the backend stalled-cycle event set for an
// architecture, in stable order.
func BackendEvents(arch machine.Arch) []Event {
	switch arch {
	case machine.AMD:
		return append([]Event(nil), amdEvents...)
	default:
		return append([]Event(nil), intelEvents...)
	}
}

// FrontendEvents returns the frontend event set (identical across
// architectures in this model).
func FrontendEvents(arch machine.Arch) []Event {
	return append([]Event(nil), frontendEvents...)
}

// Software stall category names (paper §2.3, §5.3). Values are cycle counts
// summed across threads, reported by the runtime (simulated SwissTM / the
// pthread wrapper) rather than by hardware.
const (
	SoftLockSpin    = "lock-spin"
	SoftBarrierWait = "barrier-wait"
	SoftTxAborted   = "tx-aborted"
	SoftTxBackoff   = "tx-backoff"
)

// SoftCategories lists all software stall categories in stable order.
func SoftCategories() []string {
	return []string{SoftLockSpin, SoftBarrierWait, SoftTxAborted, SoftTxBackoff}
}

// Sample is the result of one measured execution: one workload, one machine,
// one core count. Cycle counts are summed across all threads.
type Sample struct {
	// Cores is the number of cores (= threads) used.
	Cores int
	// Seconds is the measured execution time.
	Seconds float64
	// Cycles is the execution time in cycles of the critical path
	// (Seconds × frequency).
	Cycles float64
	// UsefulCycles is the total non-stalled work across threads.
	UsefulCycles float64
	// HW maps backend event code → total stalled cycles.
	HW map[string]float64
	// Frontend maps frontend event code → total stalled cycles.
	Frontend map[string]float64
	// Soft maps software category → total stalled cycles.
	Soft map[string]float64
	// Sites maps code site → category (event code or soft name) → cycles,
	// for bottleneck attribution (paper §4.6).
	Sites map[string]map[string]float64
	// FootprintBytes is the peak simulated heap footprint, used by the
	// weak-scaling mode (paper §4.5).
	FootprintBytes uint64
}

// sortedSum adds the map's values in sorted-key order. Float addition is
// not associative, so summing in Go's randomized map order makes totals
// (and everything fitted on them) differ at the last ULP from run to run;
// a stable order keeps the whole prediction pipeline byte-deterministic.
func sortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := 0.0
	for _, k := range keys {
		t += m[k]
	}
	return t
}

// TotalBackend sums all backend hardware stall cycles.
func (s *Sample) TotalBackend() float64 {
	return sortedSum(s.HW)
}

// TotalSoft sums all software stall cycles.
func (s *Sample) TotalSoft() float64 {
	return sortedSum(s.Soft)
}

// TotalFrontend sums all frontend stall cycles.
func (s *Sample) TotalFrontend() float64 {
	return sortedSum(s.Frontend)
}

// Series is a set of Samples at increasing core counts for one workload on
// one machine — the unit the extrapolation pipeline operates on.
type Series struct {
	// Workload and Machine identify the series in reports.
	Workload string
	Machine  string
	// Scale is the dataset scale the samples were collected at (0 when
	// unknown, e.g. externally collected series). Consumers that need to
	// re-measure comparable behaviour (predict -compare) use it instead of
	// assuming a scale.
	Scale float64
	// Samples are ordered by ascending Cores.
	Samples []Sample
}

// Sort orders the samples by core count.
func (s *Series) Sort() {
	sort.Slice(s.Samples, func(i, j int) bool {
		return s.Samples[i].Cores < s.Samples[j].Cores
	})
}

// Cores returns the core counts as float64s (the regression x-axis).
func (s *Series) Cores() []float64 {
	out := make([]float64, len(s.Samples))
	for i := range s.Samples {
		out[i] = float64(s.Samples[i].Cores)
	}
	return out
}

// Times returns the measured execution times in seconds.
func (s *Series) Times() []float64 {
	out := make([]float64, len(s.Samples))
	for i := range s.Samples {
		out[i] = s.Samples[i].Seconds
	}
	return out
}

// Event returns the per-core-count values of one backend event.
func (s *Series) Event(code string) []float64 {
	out := make([]float64, len(s.Samples))
	for i := range s.Samples {
		out[i] = s.Samples[i].HW[code]
	}
	return out
}

// SoftCategory returns the per-core-count values of one software category.
func (s *Series) SoftCategory(name string) []float64 {
	out := make([]float64, len(s.Samples))
	for i := range s.Samples {
		out[i] = s.Samples[i].Soft[name]
	}
	return out
}

// EventCodes returns the backend event codes present in the series, sorted.
func (s *Series) EventCodes() []string {
	seen := map[string]bool{}
	for i := range s.Samples {
		for code := range s.Samples[i].HW {
			seen[code] = true
		}
	}
	out := make([]string, 0, len(seen))
	for code := range seen {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// SoftNames returns the software categories present in the series, sorted.
func (s *Series) SoftNames() []string {
	seen := map[string]bool{}
	for i := range s.Samples {
		for name := range s.Samples[i].Soft {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StallsPerCore returns total stalled cycles divided by core count at each
// measurement. includeSoft adds software stalls; includeFrontend adds
// frontend stalls (used only by the §5.2 ablation).
func (s *Series) StallsPerCore(includeSoft, includeFrontend bool) []float64 {
	out := make([]float64, len(s.Samples))
	for i := range s.Samples {
		smp := &s.Samples[i]
		total := smp.TotalBackend()
		if includeSoft {
			total += smp.TotalSoft()
		}
		if includeFrontend {
			total += smp.TotalFrontend()
		}
		out[i] = total / float64(smp.Cores)
	}
	return out
}
