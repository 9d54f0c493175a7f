// Diagnosing bottlenecks: a reporting layer over the finished prediction.
// The pipeline already extrapolates every stall category individually
// (Extrapolate), so explaining *why* the curve bends is pure
// post-processing of Prediction.CategoryValues/CategoryFits — no new
// fitting, which is what lets a warm diagnose run at zero cost on top of
// the planner's fitted-model memo.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/machine"
)

// Classes of bottleneck: the broad resource a stall category blames.
const (
	ClassSync     = "sync"
	ClassMemory   = "memory"
	ClassCompute  = "compute"
	ClassFrontend = "frontend"
)

// CategoryClass buckets a stall category into the broad resource it blames:
// software stall categories (lock spinning, barrier waits, transaction
// aborts/backoff) are "sync"; hardware events fed by the load-store unit or
// store buffer (coherence transfers, invalidations, store bursts) are
// "memory"; fetch-stage events are "frontend"; the remaining backend events
// (reorder buffer, reservation stations, FPU, branch aborts) are "compute".
// Unknown categories — e.g. from an externally collected series — default
// to "compute", the least alarming bucket.
func CategoryClass(category string) string {
	if c, ok := categoryClasses[category]; ok {
		return c
	}
	return ClassCompute
}

// categoryClasses is built once from the counters event tables, so the
// mapping can never drift from the per-architecture event definitions.
var categoryClasses = buildCategoryClasses()

func buildCategoryClasses() map[string]string {
	m := map[string]string{}
	for _, arch := range []machine.Arch{machine.AMD, machine.Intel} {
		for _, ev := range counters.BackendEvents(arch) {
			m[ev.Code] = eventClass(ev)
		}
		for _, ev := range counters.FrontendEvents(arch) {
			m[ev.Code] = ClassFrontend
		}
	}
	for _, cat := range counters.SoftCategories() {
		m[cat] = ClassSync
	}
	return m
}

func eventClass(ev counters.Event) string {
	if ev.Frontend {
		return ClassFrontend
	}
	for _, src := range ev.Sources {
		if src == counters.SrcLS || src == counters.SrcStoreBuf {
			return ClassMemory
		}
	}
	return ClassCompute
}

// CategoryDiagnosis is one stall category's contribution to the diagnosis:
// its extrapolated values and share of total stalls at every target core
// count, plus the growth classification of its selected fit.
type CategoryDiagnosis struct {
	// Category is the event code or software stall name; Class is its
	// CategoryClass bucket.
	Category string
	Class    string
	// Fit is the selected extrapolation function (nil for categories that
	// were effectively absent and never fitted).
	Fit *fit.Fit
	// Values are the extrapolated stalled cycles over the diagnosis's
	// TargetCores; Shares are Values divided by the per-core-count total
	// (0 where the total is 0).
	Values []float64
	Shares []float64
	// Growth classifies the fit over the target range; GrowthExponent is
	// the effective power-law exponent it was derived from.
	Growth         fit.GrowthClass
	GrowthExponent float64
}

// Crossover marks a core count where the dominant stall category changes.
type Crossover struct {
	// Cores is the first target core count at which To dominates.
	Cores int
	// From and To are the previously and newly dominant categories.
	From, To string
}

// Diagnosis explains a prediction: which categories cost what at each core
// count, where dominance flips, and which category's growth kills scaling.
type Diagnosis struct {
	// TargetCores are the core counts diagnosed (the prediction's targets).
	TargetCores []float64
	// Categories holds every extrapolated category, sorted by name so
	// reports are deterministic.
	Categories []CategoryDiagnosis
	// Dominant names the largest category at each target core count (ties
	// break to the lexicographically smaller name).
	Dominant []string
	// Crossovers lists the points where Dominant changes.
	Crossovers []Crossover
	// Killer is the category whose growth rate kills scaling at the
	// machine's max cores: among categories carrying at least 5% of total
	// stalls there, the one with the largest growth exponent (ties break
	// toward the larger share, then the smaller name). KillerShare is its
	// share at max cores.
	Killer       string
	KillerClass  string
	KillerGrowth fit.GrowthClass
	KillerShare  float64
	// ScalingStop is the prediction's saturation core count.
	ScalingStop int
}

// minKillerShare is the share floor below which a fast-growing category is
// too small to blame: a 0.1% category with a steep fit is noise, not the
// scaling killer.
const minKillerShare = 0.05

// Diagnose finishes a fitted artifact and derives its Diagnosis. The
// artifact already holds every per-category fit, so this is Finish plus
// reporting — never new fitting.
func (pl *Pipeline) Diagnose(ctx context.Context, art *FitArtifact) (*Diagnosis, error) {
	pred, err := pl.Finish(ctx, art)
	if err != nil {
		return nil, err
	}
	return pred.Diagnose()
}

// Diagnose derives the Diagnosis from a finished prediction. It reads only
// CategoryValues/CategoryFits/TargetCores/Time — pure post-processing, no
// refitting — so diagnosing a memoized prediction costs nothing.
func (p *Prediction) Diagnose() (*Diagnosis, error) {
	n := len(p.TargetCores)
	if n == 0 || len(p.CategoryValues) == 0 {
		return nil, fmt.Errorf("core: prediction has no extrapolated categories to diagnose")
	}
	names := make([]string, 0, len(p.CategoryValues))
	for cat := range p.CategoryValues {
		names = append(names, cat)
	}
	sort.Strings(names)

	totals := make([]float64, n)
	for _, cat := range names {
		for i, v := range p.CategoryValues[cat] {
			totals[i] += v
		}
	}

	d := &Diagnosis{TargetCores: p.TargetCores, ScalingStop: p.ScalingStop()}
	lo, hi := p.TargetCores[0], p.TargetCores[n-1]
	for _, cat := range names {
		vals := p.CategoryValues[cat]
		cd := CategoryDiagnosis{
			Category: cat,
			Class:    CategoryClass(cat),
			Fit:      p.CategoryFits[cat],
			Values:   vals,
			Shares:   make([]float64, n),
			Growth:   fit.GrowthFlat, // absent categories carry no fit and stay flat
		}
		for i, v := range vals {
			if totals[i] > 0 {
				cd.Shares[i] = v / totals[i]
			}
		}
		if cd.Fit != nil {
			cd.Growth, cd.GrowthExponent = cd.Fit.ClassifyGrowth(lo, hi)
		}
		d.Categories = append(d.Categories, cd)
	}

	d.Dominant = make([]string, n)
	for i := range d.Dominant {
		best, bestV := "", -1.0
		for _, cd := range d.Categories {
			if outranks(cd.Category, cd.Values[i], best, bestV) {
				best, bestV = cd.Category, cd.Values[i]
			}
		}
		d.Dominant[i] = best
	}
	for i := 1; i < n; i++ {
		if d.Dominant[i] != d.Dominant[i-1] {
			d.Crossovers = append(d.Crossovers, Crossover{
				Cores: int(p.TargetCores[i]), From: d.Dominant[i-1], To: d.Dominant[i]})
		}
	}

	last := n - 1
	var killer *CategoryDiagnosis
	for i := range d.Categories {
		cd := &d.Categories[i]
		if cd.Shares[last] < minKillerShare {
			continue
		}
		if killer == nil || cd.GrowthExponent > killer.GrowthExponent ||
			(cd.GrowthExponent == killer.GrowthExponent && cd.Shares[last] > killer.Shares[last]) {
			killer = cd
		}
	}
	if killer == nil {
		// Degenerate distribution (everything under the floor, or zero
		// totals): blame the dominant category at max cores.
		for i := range d.Categories {
			if d.Categories[i].Category == d.Dominant[last] {
				killer = &d.Categories[i]
				break
			}
		}
	}
	d.Killer = killer.Category
	d.KillerClass = killer.Class
	d.KillerGrowth = killer.Growth
	d.KillerShare = killer.Shares[last]
	return d, nil
}

// outranks is the one ordering rule over stall categories at a target core
// count: the larger value first, ties to the smaller name. Dominant picks
// by it and RankAt sorts by it.
func outranks(cat string, v float64, other string, w float64) bool {
	if v != w {
		return v > w
	}
	return cat < other
}

// RankAt returns a copy of the categories ordered by their value at the
// i-th target core count under the rule Dominant picks by, so the first is
// Dominant[i].
func (d *Diagnosis) RankAt(i int) []CategoryDiagnosis {
	out := make([]CategoryDiagnosis, len(d.Categories))
	copy(out, d.Categories)
	sort.Slice(out, func(a, b int) bool {
		return outranks(out[a].Category, out[a].Values[i], out[b].Category, out[b].Values[i])
	})
	return out
}

// saturationTol is the knee of SaturationPoint: a later core count must cut
// the time by more than this fraction to count as continued scaling.
const saturationTol = 0.10

// ScalingStop returns the core count at which the predicted execution time
// saturates — the paper's "number of cores for which the application stops
// scaling". It uses a 10% knee rather than the global minimum so that long,
// nearly flat tails (where a fraction of a percent separates core counts)
// do not masquerade as continued scaling.
func (p *Prediction) ScalingStop() int {
	return SaturationPoint(p.TargetCores, p.Time)
}

// ScalingStopOf is ScalingStop for a measured series, used to compare the
// predicted and actual stop points.
func ScalingStopOf(series *counters.Series) int {
	return SaturationPoint(series.Cores(), series.Times())
}

// SaturationPoint returns the smallest core count beyond which the time
// series never improves by more than saturationTol (fractionally) — the
// knee where adding cores stops paying off. Unlike the global minimum it
// is robust to long, slightly drifting tails. cores and times must be
// parallel slices ordered by core count.
func SaturationPoint(cores []float64, times []float64) int {
	if len(cores) == 0 || len(cores) != len(times) {
		return 0
	}
	for i := range cores {
		bestLater := times[i]
		for j := i + 1; j < len(times); j++ {
			if times[j] < bestLater {
				bestLater = times[j]
			}
		}
		if bestLater > times[i]*(1-saturationTol) {
			return int(cores[i])
		}
	}
	return int(cores[len(cores)-1])
}
