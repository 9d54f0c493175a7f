package sim

import (
	"repro/internal/counters"
	"repro/internal/machine"
)

// CollectState exports the pooled collection state to the external tests,
// so they can drive a chosen sequence of runs through one state.
type CollectState = collectState

// Collect is one collection on st, as Collect runs it on a pooled state.
func (st *CollectState) Collect(w Workload, mach *machine.Config, cores int, scale float64) (counters.Sample, error) {
	return st.collect(w, mach, cores, scale)
}
