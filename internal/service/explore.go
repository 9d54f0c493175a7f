// Explore planner: budgeted active sampling over a spec region.
//
// A full sweep simulates every cell of a parameter grid; Explore covers the
// same region with a fraction of the simulations. The region (one workload
// family's value grid × one machine) decomposes through the ordinary sweep
// planner, so every executed cell inherits the collection memo, the fitted-
// model LRU, singleflight and — under the cluster coordinator — the per-cell
// /v1/cell fan-out unchanged. The planner then runs rounds: a farthest-point
// seed batch spreads the budget across normalized parameter space, every
// unmeasured cell is estimated from its nearest measured neighbours, and
// each following round spends budget only where the estimated bootstrap band
// (the acquisition signal from the residual-bootstrap confidence bands) is
// still wider than the target. Everything is deterministic for a fixed
// request: cell order is plan order, seeding is farthest-point (no RNG —
// the only randomness anywhere is the spec-derived bootstrap seed inside
// each cell), and estimates combine measured cells in sorted-neighbour
// order, so responses are byte-identical across runs, worker counts and the
// cluster coordinator.
package service

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// Explore defaults: a modest bootstrap (the acquisition signal needs a band,
// not a publication-grade one), a 10% relative-band target, and small rounds
// so the planner re-estimates often enough to stop early.
const (
	DefaultExploreBootstrap = 25
	DefaultTargetBandPct    = 10.0
	DefaultExploreRound     = 4
)

// ExploreRequest asks for budgeted coverage of a spec region: one workload
// family's value grid (`memcached?skew=1,skew=2,setpct=0,setpct=20`) on one
// machine, a measurement budget, and a target uncertainty. Bootstrap bands
// are the acquisition signal, so bootstrapping is always on (0 means the
// DefaultExploreBootstrap; it cannot be disabled).
type ExploreRequest struct {
	APIVersion string `json:"api_version,omitempty"`
	// Workload is the region: one spec whose repeated keys span the grid.
	// Machine is the single measurement machine.
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// MeasCores overrides the one-processor measurement window (0 = auto).
	MeasCores int `json:"meas_cores,omitempty"`
	// Scale is the dataset scale; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// Soft includes software stall categories.
	Soft bool `json:"soft,omitempty"`
	// Budget caps how many region cells are actually simulated; 0 means
	// half the region (rounded up).
	Budget int `json:"budget,omitempty"`
	// TargetBandPct is the relative bootstrap-band width (percent of the
	// predicted time at full cores) below which a cell needs no refinement;
	// 0 means DefaultTargetBandPct.
	TargetBandPct float64 `json:"target_band_pct,omitempty"`
	// RoundSize caps the cells simulated per round; 0 means
	// min(DefaultExploreRound, budget).
	RoundSize int `json:"round_size,omitempty"`
	// Bootstrap / CILevel / Seed configure the per-cell confidence bands;
	// Bootstrap 0 means DefaultExploreBootstrap.
	Bootstrap int     `json:"bootstrap,omitempty"`
	CILevel   float64 `json:"ci_level,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Workers bounds the per-round worker pool at or below the service's
	// Workers; 0 means the service's.
	Workers int `json:"workers,omitempty"`
}

// ExploreRound records one executed batch: which cells it simulated (in
// selection order) and the widest estimated band that triggered it (0 for
// the farthest-point seed round, which runs before any estimate exists).
type ExploreRound struct {
	Round         int      `json:"round"`
	Simulated     []string `json:"simulated"`
	MaxEstBandPct float64  `json:"max_est_band_pct,omitempty"`
}

// ExploreCell is one region cell: either measured (a real simulated
// prediction with its bootstrap band, plus the round that spent budget on
// it) or estimated (inverse-distance-weighted over the nearest measured
// neighbours; Source names the nearest one and Distance how far away in
// normalized parameter space it sits).
type ExploreCell struct {
	Workload string `json:"workload"`
	Measured bool   `json:"measured"`
	Round    int    `json:"round,omitempty"`
	Source   string `json:"source,omitempty"`
	// Distance is the normalized parameter-space distance to Source,
	// rounded to 3 decimals (estimated cells only).
	Distance float64 `json:"distance,omitempty"`
	Stop     int     `json:"stop,omitempty"`
	TimeFull float64 `json:"time_full_s,omitempty"`
	TimeLo   float64 `json:"time_lo_s,omitempty"`
	TimeHi   float64 `json:"time_hi_s,omitempty"`
	// BandPct is the cell's relative band width in percent (measured: the
	// real bootstrap band; estimated: the neighbour band inflated by the
	// distance), rounded to 2 decimals.
	BandPct  float64 `json:"band_pct,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// ExploreResponse is the whole region in deterministic grid order: every
// cell predicted (measured or estimated), the budget accounting, and the
// per-round audit trail.
type ExploreResponse struct {
	APIVersion string `json:"api_version"`
	// Workload is the canonical region spec; Machine the canonical machine.
	Workload  string  `json:"workload"`
	Machine   string  `json:"machine"`
	MeasCores int     `json:"meas_cores"`
	Scale     float64 `json:"scale,omitempty"`
	// TargetCores is the machine's full core count every cell predicts to.
	TargetCores int `json:"target_cores"`
	// Effective knobs after defaulting.
	TargetBandPct float64 `json:"target_band_pct"`
	Budget        int     `json:"budget"`
	RoundSize     int     `json:"round_size"`
	Bootstrap     int     `json:"bootstrap"`
	CILevel       float64 `json:"ci_level"`
	Seed          int64   `json:"seed,omitempty"`
	// Region is the grid size; SimsUsed how many cells were actually
	// simulated; FullGridSims what a plain sweep would have simulated.
	Region       int `json:"region"`
	SimsUsed     int `json:"sims_used"`
	FullGridSims int `json:"full_grid_sims"`
	// TargetMet reports that every unmeasured cell's estimated band is
	// within the target; AchievedBandPct is the widest such estimate (0
	// when the whole region was measured).
	TargetMet       bool           `json:"target_met"`
	AchievedBandPct float64        `json:"achieved_band_pct"`
	Rounds          []ExploreRound `json:"rounds"`
	Cells           []ExploreCell  `json:"cells"`
	Failures        int            `json:"failures"`
}

// Explore answers an ExploreRequest in process.
func (s *Service) Explore(ctx context.Context, req ExploreRequest) (*ExploreResponse, error) {
	return s.explore(ctx, req, s.RunCell)
}

// exploreCellState is the planner's working state for one region cell.
type exploreCellState struct {
	workload string
	point    []float64
	measured bool
	round    int
	cell     SweepCell
	// est* hold the current inverse-distance estimate for unmeasured cells.
	estTime, estLo, estHi float64
	estBandPct            float64
	source                string
	sourceDist            float64
	estOK                 bool
}

// explore is Explore with each measured cell executed by run. Every
// planning decision (validation, grid order, seeding, acquisition,
// estimation) stays here, so a coordinator that substitutes its fleet
// fan-out for run answers byte-identically.
func (s *Service) explore(ctx context.Context, req ExploreRequest, run CellRunner) (*ExploreResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	if req.Workload == "" {
		return nil, badRequest("explore requires a workload region (a spec whose repeated keys span the grid)")
	}
	if req.Machine == "" {
		return nil, badRequest("explore takes exactly one machine")
	}
	boot := req.Bootstrap
	if boot == 0 {
		boot = DefaultExploreBootstrap
	}
	// The region decomposes through the ordinary sweep planner: identical
	// validation, canonical cell names, deterministic grid order, and the
	// same fit/series identities every other entry point uses.
	plan, err := s.PlanSweep(SweepRequest{
		APIVersion: req.APIVersion,
		Workloads:  []string{req.Workload},
		Machines:   []string{req.Machine},
		MeasCores:  req.MeasCores,
		Scale:      req.Scale,
		Soft:       req.Soft,
		Workers:    req.Workers,
		Bootstrap:  boot,
		CILevel:    req.CILevel,
		Seed:       req.Seed,
	})
	if err != nil {
		return nil, err
	}
	if len(plan.Machines) != 1 {
		return nil, badRequest("explore takes exactly one machine (got %d)", len(plan.Machines))
	}
	// A window beyond the one machine fails every cell alike, so it fails
	// the request, as it does predict's.
	if len(plan.Cells) > 0 && plan.Cells[0].Err != nil {
		return nil, plan.Cells[0].Err
	}
	n := len(plan.Cells)
	if req.Budget < 0 {
		return nil, badRequest("negative exploration budget %d", req.Budget)
	}
	if math.IsNaN(req.TargetBandPct) || math.IsInf(req.TargetBandPct, 0) {
		// JSON cannot carry a non-finite number, but in-process callers can.
		return nil, badRequest("non-finite target band width %g", req.TargetBandPct)
	}
	if req.TargetBandPct < 0 {
		return nil, badRequest("negative target band width %g%%", req.TargetBandPct)
	}
	if req.RoundSize < 0 {
		return nil, badRequest("negative round size %d", req.RoundSize)
	}
	budget := req.Budget
	if budget == 0 {
		budget = (n + 1) / 2
	}
	if budget > n {
		budget = n
	}
	target := req.TargetBandPct
	if target == 0 {
		target = DefaultTargetBandPct
	}
	roundSize := req.RoundSize
	if roundSize == 0 {
		roundSize = DefaultExploreRound
	}
	if roundSize > budget {
		roundSize = budget
	}

	// Each cell's normalized parameter-space coordinates come from the
	// family's own typed schema, so distance needs no reflection and no
	// per-key scale guessing. Every cell shares one family (the region is
	// one grid spec), hence one schema.
	first := &plan.Cells[0]
	schema := familySchema(spec.Family(first.Request.Workload))
	states := make([]*exploreCellState, n)
	for i := range plan.Cells {
		wl := plan.Cells[i].Request.Workload
		sp, err := spec.Parse(wl)
		if err != nil {
			return nil, badRequest("region cell %q: %v", wl, err)
		}
		vals, err := schema.Resolve(sp)
		if err != nil {
			return nil, badRequest("region cell %q: %v", wl, err)
		}
		states[i] = &exploreCellState{workload: wl, point: schema.Point(vals)}
	}

	resp := &ExploreResponse{
		APIVersion:    APIVersion,
		Workload:      canonicalRegion(req.Workload),
		Machine:       plan.Machines[0],
		MeasCores:     first.Request.MeasCores,
		Scale:         first.Request.Scale,
		TargetCores:   first.sc.target.NumCores(),
		TargetBandPct: target,
		Budget:        budget,
		RoundSize:     roundSize,
		Bootstrap:     boot,
		CILevel:       cellOptions(first.Request).Resolved().CILevel,
		Seed:          req.Seed,
		Region:        n,
		FullGridSims:  n,
	}

	batch := seedBatch(states, min(roundSize, budget))
	maxEst := 0.0 // the estimate that triggered the batch; 0 for the seed
	for round := 1; len(batch) > 0; round++ {
		pool.ForN(len(batch), plan.Workers, func(bi int) {
			states[batch[bi]].cell = run(ctx, &plan.Cells[batch[bi]])
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		simulated := make([]string, len(batch))
		for bi, i := range batch {
			states[i].measured = true
			states[i].round = round
			simulated[bi] = states[i].workload
		}
		resp.SimsUsed += len(batch)
		resp.Rounds = append(resp.Rounds, ExploreRound{
			Round: round, Simulated: simulated, MaxEstBandPct: round2(maxEst),
		})
		if resp.SimsUsed >= budget {
			break
		}
		if !estimateRegion(states) {
			break // nothing measured successfully; more rounds estimate nothing
		}
		// Refine only where the estimated band is still wider than the
		// target: widest first, plan order on ties.
		var cands []int
		maxEst = 0
		for i, st := range states {
			if st.measured || !st.estOK {
				continue
			}
			if st.estBandPct > maxEst {
				maxEst = st.estBandPct
			}
			if st.estBandPct > target {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.SliceStable(cands, func(a, b int) bool {
			return states[cands[a]].estBandPct > states[cands[b]].estBandPct
		})
		if room := budget - resp.SimsUsed; len(cands) > min(roundSize, room) {
			cands = cands[:min(roundSize, room)]
		}
		batch = cands
	}

	// Final estimates against the final measured set, then assemble the
	// region in plan order.
	estimable := estimateRegion(states)
	resp.TargetMet = true
	for _, st := range states {
		if st.measured {
			c := st.cell
			ec := ExploreCell{
				Workload: st.workload,
				Measured: true,
				Round:    st.round,
				Stop:     c.Stop,
				TimeFull: c.TimeFull,
				TimeLo:   c.TimeLo,
				TimeHi:   c.TimeHi,
				BandPct:  round2(100 * core.RelativeBandWidth(c.TimeFull, c.TimeLo, c.TimeHi)),
				CacheHit: c.CacheHit,
				Error:    c.Error,
			}
			if c.Error != "" {
				resp.Failures++
			}
			resp.Cells = append(resp.Cells, ec)
			continue
		}
		ec := ExploreCell{Workload: st.workload}
		if !estimable || !st.estOK {
			ec.Error = "no successfully measured neighbour to estimate from"
			resp.Failures++
			resp.TargetMet = false
		} else {
			ec.Source = st.source
			ec.Distance = round3(st.sourceDist)
			ec.TimeFull = st.estTime
			ec.TimeLo = st.estLo
			ec.TimeHi = st.estHi
			ec.BandPct = round2(st.estBandPct)
			if ec.BandPct > resp.AchievedBandPct {
				resp.AchievedBandPct = ec.BandPct
			}
			if st.estBandPct > target {
				resp.TargetMet = false
			}
		}
		resp.Cells = append(resp.Cells, ec)
	}
	return resp, nil
}

// seedBatch picks the first round by farthest-point sampling: start at the
// cell nearest the region's centroid, then repeatedly add the cell farthest
// from everything chosen so far. Ties break toward the lower plan index, so
// the seed is fully deterministic. Degenerate regions (every point equal,
// e.g. a fixed workload) fall back to plain plan order.
func seedBatch(states []*exploreCellState, k int) []int {
	n := len(states)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	dim := len(states[0].point)
	cent := make([]float64, dim)
	for _, st := range states {
		for d := 0; d < dim; d++ {
			cent[d] += st.point[d]
		}
	}
	for d := 0; d < dim; d++ {
		cent[d] /= float64(n)
	}
	first, bestD := 0, spec.Distance(states[0].point, cent)
	for i := 1; i < n; i++ {
		if d := spec.Distance(states[i].point, cent); d < bestD {
			first, bestD = i, d
		}
	}
	chosen := []int{first}
	inBatch := make([]bool, n)
	inBatch[first] = true
	minDist := make([]float64, n)
	for i := range states {
		minDist[i] = spec.Distance(states[i].point, states[first].point)
	}
	for len(chosen) < k {
		next, far := -1, -1.0
		for i := range states {
			if !inBatch[i] && minDist[i] > far {
				next, far = i, minDist[i]
			}
		}
		chosen = append(chosen, next)
		inBatch[next] = true
		for i := range states {
			if d := spec.Distance(states[i].point, states[next].point); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(chosen)
	return chosen
}

// exploreNeighbours is how many measured neighbours an estimate blends.
const exploreNeighbours = 3

// estimateRegion fills every unmeasured cell's estimate from the measured
// ones: inverse-distance-weighted time and band over the nearest (at most
// exploreNeighbours) successfully measured cells, with the band additionally
// inflated by the nearest neighbour's distance — a cell far from every
// measurement is honestly more uncertain than its neighbours' bands alone
// claim, which is exactly the acquisition signal that sends the next round
// there. Returns false when nothing measured successfully yet.
func estimateRegion(states []*exploreCellState) bool {
	var ok []int
	for i, st := range states {
		if st.measured && st.cell.Error == "" {
			ok = append(ok, i)
		}
	}
	if len(ok) == 0 {
		return false
	}
	type nb struct {
		idx int
		d   float64
	}
	for _, st := range states {
		if st.measured {
			continue
		}
		nbs := make([]nb, len(ok))
		for j, oi := range ok {
			nbs[j] = nb{oi, spec.Distance(st.point, states[oi].point)}
		}
		sort.SliceStable(nbs, func(a, b int) bool { return nbs[a].d < nbs[b].d })
		if len(nbs) > exploreNeighbours {
			nbs = nbs[:exploreNeighbours]
		}
		const eps = 1e-9
		var wsum, t, lo, hi float64
		for _, nbr := range nbs {
			w := 1 / (nbr.d + eps)
			c := states[nbr.idx].cell
			wsum += w
			t += w * c.TimeFull
			lo += w * c.TimeLo
			hi += w * c.TimeHi
		}
		t, lo, hi = t/wsum, lo/wsum, hi/wsum
		// Inflate the band around the point estimate by the distance to the
		// nearest real measurement (in normalized space, so 1.0 means a full
		// axis span away).
		infl := 1 + nbs[0].d
		lo = t - (t-lo)*infl
		if lo < 0 {
			lo = 0
		}
		hi = t + (hi-t)*infl
		st.estTime, st.estLo, st.estHi = t, lo, hi
		st.estBandPct = 100 * core.RelativeBandWidth(t, lo, hi)
		st.source = states[nbs[0].idx].workload
		st.sourceDist = nbs[0].d
		st.estOK = true
	}
	return true
}

// familySchema returns a workload family's typed parameter schema (an empty
// schema for fixed workloads) — the explorer's and diagnose's shared view of
// a family's parameter space.
func familySchema(family string) *spec.Schema {
	sch := &spec.Schema{Context: fmt.Sprintf("workload %q", family)}
	for _, f := range workloads.Families() {
		if f.Name == family {
			sch.Params = f.Params
			break
		}
	}
	return sch
}

// canonicalRegion renders the schema-free canonical form of a region spec
// (keys sorted, per-key value order preserved); the per-cell names are the
// fully schema-canonical ones.
func canonicalRegion(region string) string {
	sp, err := spec.Parse(region)
	if err != nil {
		return region
	}
	return sp.String()
}
