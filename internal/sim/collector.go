package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/pool"
)

// EngineVersion identifies the simulator's measurement semantics. It is part
// of every persisted-measurement cache key (internal/store): bump it whenever
// a change to the engine, the workload builders or the counter attribution
// alters the numbers Collect produces, so stale cached series are never
// mistaken for current ones.
const EngineVersion = "sim-v1"

// Workload is implemented by every benchmark in internal/workloads. Build
// constructs the per-thread programs for one run: the builder carries the
// machine, thread count and dataset scale.
type Workload interface {
	// Name is the benchmark's name as it appears in the paper's tables.
	Name() string
	// Build appends the run's programs, locks, barriers and heap regions.
	Build(b *Builder)
}

// MaxScale bounds the dataset scale of one run. A run's program grows
// linearly with its scale (lock-based SL, the largest, counts 1.76 M ops
// on one Opteron core at scale 1), so an unbounded scale lets one request
// ask a single simulation for gigabytes. The bound is 4× the largest scale
// the paper's experiments use (fig9's 2× dataset at scale 1).
const MaxScale = 8

// ResolveScale is the one rule for a requested dataset scale: a non-finite
// scale or one above MaxScale is an error, a scale of zero or below means
// the paper's full-size datasets (1), and any other scale stands. Every
// measurement applies it before the scale reaches a seed, a builder or a
// cache key, so scale 0 measures exactly what scale 1 does.
func ResolveScale(scale float64) (float64, error) {
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return 0, fmt.Errorf("non-finite scale %g", scale)
	}
	if scale > MaxScale {
		return 0, fmt.Errorf("scale %g above the limit of %d", scale, MaxScale)
	}
	if scale <= 0 {
		return 1, nil
	}
	return scale, nil
}

// collectSeed derives the deterministic seed of one run. It folds in both
// names — the canonical spec strings of the resolved workload and machine —
// so every parameterized variant measures as its own application rather
// than a reshuffling of its family's default run.
func collectSeed(w Workload, mach *machine.Config, cores int, scale float64) uint64 {
	return hashString(w.Name()) ^ hashString(mach.Name) ^ (uint64(cores) * 0x9e3779b97f4a7c15) ^ uint64(scale*1000)
}

// collectState is the reusable state of one collection run: an engine plus
// the program buffers of the state's previous run. A run takes a state from
// statePool and returns it when done, so every run that finds a used state
// there simulates without allocating in the loop.
type collectState struct {
	eng   Engine
	progs []Program
	// entries is the total op count of the state's previous run; the next
	// run presizes its per-thread buffers from it (total work is roughly
	// constant across core counts, only the split changes).
	entries int
}

// newRun checks one run's core count, resolves its scale and returns the
// run's builder, seeded from the resolved scale.
func newRun(w Workload, mach *machine.Config, cores int, scale float64) (*Builder, error) {
	if cores < 1 || cores > mach.NumCores() {
		return nil, fmt.Errorf("sim: %d cores out of range for %s (max %d)", cores, mach.Name, mach.NumCores())
	}
	scale, err := ResolveScale(scale)
	if err != nil {
		return nil, err
	}
	return NewBuilder(mach, cores, scale, collectSeed(w, mach, cores, scale)), nil
}

func (st *collectState) collect(w Workload, mach *machine.Config, cores int, scale float64) (counters.Sample, error) {
	b, err := newRun(w, mach, cores, scale)
	if err != nil {
		return counters.Sample{}, err
	}
	st.progs = b.recycleProgs(st.progs, st.entries/cores)
	w.Build(b)
	st.entries = 0
	for _, p := range b.progs {
		st.entries += len(p)
	}
	st.eng.reset(b)
	st.eng.run()
	return st.eng.sample(), nil
}

// statePool recycles collection state — engines with their cache arrays and
// directory pages, and program buffers — from one run to the next, whichever
// goroutine runs it. An engine is fully re-initialized by reset, so reuse
// cannot leak state between runs; it only spares the multi-megabyte LLC tag
// arrays from being reallocated for every run.
var statePool = sync.Pool{New: func() any { return new(collectState) }}

// Collect executes one measurement run: the workload on the machine with
// the given number of cores and dataset scale (see ResolveScale). It is
// the simulated equivalent of "run the application under perf stat once"
// and is deterministic in all its arguments. Every simulated sample,
// CollectSeries' included, comes from Collect.
func Collect(w Workload, mach *machine.Config, cores int, scale float64) (counters.Sample, error) {
	st := statePool.Get().(*collectState)
	s, err := st.collect(w, mach, cores, scale)
	statePool.Put(st)
	return s, err
}

// CollectSeries measures the workload at every core count in coreCounts,
// returning the Series the extrapolation pipeline consumes. The runs are
// independent Collect calls fanned out through pool.ForN; every sample lands
// in its input-index slot, so the resulting Series is byte-identical to a
// sequential collection.
func CollectSeries(w Workload, mach *machine.Config, coreCounts []int, scale float64) (*counters.Series, error) {
	scale, err := ResolveScale(scale)
	if err != nil {
		return nil, err
	}
	samples := make([]counters.Sample, len(coreCounts))
	errs := make([]error, len(coreCounts))
	pool.ForN(len(coreCounts), 0, func(i int) {
		samples[i], errs[i] = Collect(w, mach, coreCounts[i], scale)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := &counters.Series{Workload: w.Name(), Machine: mach.Name, Scale: scale, Samples: samples}
	s.Sort()
	return s, nil
}

// CountOps builds the workload's programs (without simulating them) and
// returns the total number of operation elements — the work denominator
// estima-bench -simbench normalizes throughput by.
func CountOps(w Workload, mach *machine.Config, cores int, scale float64) (int64, error) {
	b, err := newRun(w, mach, cores, scale)
	if err != nil {
		return 0, err
	}
	w.Build(b)
	return b.Ops(), nil
}

// CoreRange returns 1..max, the exhaustive measurement schedule used
// throughout the evaluation.
func CoreRange(max int) []int {
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
