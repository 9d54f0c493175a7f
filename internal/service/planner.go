// Sweep planner: the layer between the Service facade and core.Pipeline
// that turns a SweepRequest into a deduplicated DAG of
// (collect → fit → predict) steps.
//
// Decomposition: every matrix cell becomes one PlannedCell carrying its
// fit key (the collect → fit → predict step). Cells measuring one window
// share one collection (the in-process sample memo simulates each sample
// once), and cells sharing a fit key share one fit: the fitted-model memo
// below collapses concurrent duplicates and retains finished artifacts in
// a bounded LRU, so a warm sweep performs zero new fits per already-seen
// (workload, machine, options, targets) input. Evicted artifacts are cheap
// to restore: their measurement samples persist in the store, and
// refitting costs far less than re-measuring.
package service

import (
	"context"
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// expandGrid parses one sweep entry as a spec and expands its value grid
// into instance spec strings (a plain name or single-valued spec expands to
// itself). Oversized grids and parse failures are the caller's fault.
func expandGrid(entry string) ([]string, error) {
	sp, err := spec.Parse(entry)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	insts, err := sp.Instances()
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.String()
	}
	return out, nil
}

// DefaultFitCacheSize bounds the fitted-model memo (entries), and the
// cluster coordinator's cell memo, which holds one cell per fit artifact.
// An artifact is a few fitted functions plus the evaluated curves — small
// next to the series it came from — so the bound comfortably covers the
// full workload × machine preset matrix at several option sets. Evicted
// artifacts cost one refit to restore (their measurement series stays in
// the store), so the bound trades memory for refit work only.
const DefaultFitCacheSize = 256

// maxSweepCells bounds one sweep's workload × machine matrix. Grids make
// huge matrices cheap to *request* (spec.MaxGridInstances bounds each
// entry, but entries multiply), so the aggregate is capped before any cell
// is materialized.
const maxSweepCells = 16384

// fitResult is one fitted-model memo value.
type fitResult struct {
	pred *core.Prediction
	// seriesHit records whether every sample of the artifact's measurement
	// series was replayed from the store rather than simulated — the value
	// every requester reports, so repeated requests answer identically.
	seriesHit bool
}

// FitKey identifies one fitted-model artifact: the measurement window (the
// canonical workload and machine names, the window's top core count and
// the resolved scale), the options fingerprint (core.Options.Fingerprint)
// and the prediction targets, joined by joinTargets. It is comparable, so
// the fit memo and the coordinator's cell memo key on it directly.
type FitKey struct {
	Workload, Machine string
	MeasCores         int
	Scale             float64
	Options, Targets  string
}

// fitKey is the one constructor of a FitKey.
//
//estima:canonical workload mach
func fitKey(workload, mach string, measCores int, scale float64, fingerprint, targets string) FitKey {
	return FitKey{Workload: workload, Machine: mach, MeasCores: measCores, Scale: scale,
		Options: fingerprint, Targets: targets}
}

// joinTargets is a target list's form in a FitKey: the decimal core counts,
// comma-separated.
func joinTargets(targets []int) string {
	b := make([]byte, 0, 3*len(targets))
	for i, t := range targets {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return string(b)
}

// FitCacheStats reports the planner's lifetime counters: how many fit
// computations actually ran and how many requests were answered from the
// fitted-model memo (completed entries and collapsed in-flight duplicates
// alike). Benchmarks and tests read the deltas around a sweep.
func (s *Service) FitCacheStats() (computed, memoHits int64) {
	return s.fits.Stats()
}

// Predicted is the planner's in-process entry point, shared by Predict,
// every sweep cell and the experiment harness: measure (or replay) the
// contiguous 1..measCores window of workload w on m at scale (resolved by
// sim.ResolveScale), then fit and predict targets under opt — memoized in
// the fitted-model LRU, so repeated requests for the same input skip both
// collection and fitting. hit reports whether the measurement series was
// replayed rather than simulated. Options carrying a custom kernel library
// bypass the memo (kernels have no canonical fingerprint) but still share
// the measurement layer.
func (s *Service) Predicted(ctx context.Context, w sim.Workload, m *machine.Config, measCores int, scale float64, targets []int, opt core.Options) (*core.Prediction, bool, error) {
	scale, err := checkScale(scale)
	if err != nil {
		return nil, false, err
	}
	return s.predicted(ctx, w, m, measCores, scale, targets, opt)
}

// predicted is Predicted at a resolved scale. The service semaphore gates
// the fitting and bootstrap work, so concurrent requests share one CPU
// budget instead of each opening a full-width pool.
func (s *Service) predicted(ctx context.Context, w sim.Workload, m *machine.Config, measCores int, scale float64, targets []int, opt core.Options) (*core.Prediction, bool, error) {
	opt.Gate = s.sem
	fp, ok := opt.Fingerprint()
	if !ok {
		ser, hit, err := s.series(ctx, w, m, sim.CoreRange(measCores), scale)
		if err != nil {
			return nil, hit, err
		}
		pred, err := core.PredictContext(ctx, ser, targets, opt)
		return pred, hit, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	key := fitKey(w.Name(), m.Name, measCores, scale, fp, joinTargets(targets))
	if r, ok := s.fits.Get(key); ok {
		return r.pred, r.seriesHit, nil
	}
	r, err := s.fits.Do(ctx, key, func(ctx context.Context) (fitResult, error) {
		return s.fit(ctx, key, w, m, measCores, scale, targets, opt)
	})
	return r.pred, r.seriesHit, err
}

// fit computes one fitted-model memo value: measure (or replay) the
// series, fit every category, finish the prediction.
func (s *Service) fit(ctx context.Context, key FitKey, w sim.Workload, m *machine.Config, measCores int, scale float64, targets []int, opt core.Options) (fitResult, error) {
	if s.fitHook != nil {
		s.fitHook(key)
	}
	ser, hit, err := s.series(ctx, w, m, sim.CoreRange(measCores), scale)
	if err != nil {
		return fitResult{seriesHit: hit}, err
	}
	pl := core.NewPipeline(opt)
	art, err := pl.Fit(ctx, ser, targets)
	if err != nil {
		return fitResult{seriesHit: hit}, err
	}
	pred, err := pl.Finish(ctx, art)
	return fitResult{pred, hit}, err
}

// scenario is a simulate-path request resolved once: workload w measured
// on mach over the 1..measCores window at scale, predicted for every core
// count of target. Predict, Diagnose, Cell and every planned sweep or
// explore cell resolve their request into one, so each applies the same
// defaults.
type scenario struct {
	w            sim.Workload
	mach, target *machine.Config
	measCores    int
	scale        float64
	// targets are 1..target.NumCores().
	targets []int
}

// resolveScenario resolves a simulate-path request: the workload and
// machine names (with did-you-mean suggestions), the target machine ("" is
// the measurement machine), the measurement window (see checkWindow) and
// the scale (see checkScale), in that order.
func resolveScenario(workload, mach, target string, measCores int, scale float64) (scenario, error) {
	w, m, err := resolve(workload, mach)
	if err != nil {
		return scenario{}, err
	}
	tm, err := targetMachine(target, m)
	if err != nil {
		return scenario{}, err
	}
	if err := checkWindow(m, measCores); err != nil {
		return scenario{}, err
	}
	if scale, err = checkScale(scale); err != nil {
		return scenario{}, err
	}
	return newScenario(w, m, tm, measCores, scale, sim.CoreRange(tm.NumCores())), nil
}

// checkWindow is the one window rule: a measurement window (see
// newScenario) larger than the machine m is the caller's fault. A request
// that names one scenario is answered 400; a sweep or explore records the
// error in that machine's cells when it plans them.
func checkWindow(m *machine.Config, measCores int) error {
	if n := m.WindowCores(measCores); n > m.NumCores() {
		return badRequest("core range \"1-%d\" exceeds the machine's %d cores", n, m.NumCores())
	}
	return nil
}

// targetMachine resolves a request's target machine: "" means the
// measurement machine m.
func targetMachine(target string, m *machine.Config) (*machine.Config, error) {
	if target == "" {
		return m, nil
	}
	tm, err := machine.Lookup(target)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return tm, nil
}

// newScenario assembles a scenario from resolved parts, applying the
// measurement-window rule (machine.Config.WindowCores): meas cores 0 (or
// below) means one processor of the measurement machine.
func newScenario(w sim.Workload, m, tm *machine.Config, measCores int, scale float64, targets []int) scenario {
	return scenario{w: w, mach: m, target: tm, measCores: m.WindowCores(measCores), scale: scale, targets: targets}
}

// freqRatio is the scenario's cross-machine frequency ratio (§4.3):
// measurement over target frequency, or 0 (no scaling) when the
// measurement machine of a replayed series is not a preset.
func (sc *scenario) freqRatio() float64 {
	if sc.mach == nil {
		return 0
	}
	return sc.mach.FreqGHz / sc.target.FreqGHz
}

// predictScenario predicts the scenario under opt through the fit memo,
// scaled by its frequency ratio.
func (s *Service) predictScenario(ctx context.Context, sc *scenario, opt core.Options) (*core.Prediction, bool, error) {
	opt.FreqRatio = sc.freqRatio()
	return s.predicted(ctx, sc.w, sc.mach, sc.measCores, sc.scale, sc.targets, opt)
}

// PlannedCell is one unit of a planned sweep or explore: the request that
// executes it anywhere, plus its dedup identity.
type PlannedCell struct {
	// Request's workload and machine are canonical spec names; its
	// MeasCores and Scale are resolved (never zero).
	Request CellRequest
	// FitKey identifies the cell's fit+predict step, so cells sharing one
	// (overlapping grids, possibly from different clients) can share one
	// execution.
	FitKey FitKey
	// Err, when set, fails the cell at plan time (a window beyond its
	// machine): every tier hands it to Service.RunCell, which returns the
	// failed cell without simulating anything.
	Err error

	sc scenario
}

// PlannedSweep is a validated SweepRequest decomposed into deduplicated
// steps: every cell in deterministic plan order (workload-major,
// machine-minor — the order every response reproduces) plus the summary
// counts the final record reports.
type PlannedSweep struct {
	Workloads []string
	Machines  []string
	Cells     []PlannedCell
	Workers   int
	// DistinctSeries / DistinctFits count the deduplicated collect and fit
	// steps: cells beyond these counts ride along on a shared step.
	DistinctSeries int
	DistinctFits   int
}

// CellRunner executes one planned cell of a sweep or explore. Failures
// land in the cell's Error, never in a return value: one pathological pair
// must not sink the matrix. The service runs cells itself; a cluster
// coordinator substitutes its fleet fan-out (see Tier).
type CellRunner func(ctx context.Context, cell *PlannedCell) SweepCell

// planCell is the planned cell of a resolved scenario under the options
// req carries. FitKey is left to PlanSweep: a lone cell needs no dedup
// identity.
func planCell(sc scenario, req CellRequest) PlannedCell {
	return PlannedCell{
		Request: CellRequest{Workload: sc.w.Name(), Machine: sc.mach.Name, MeasCores: sc.measCores, Scale: sc.scale,
			Soft: req.Soft, Bootstrap: req.Bootstrap, CILevel: req.CILevel, Seed: req.Seed},
		sc: sc,
	}
}

// maxBootstrap bounds the replicates one request may ask for. The
// bootstrap sizes its replicate table from the count before running any of
// them, so an unbounded count lets one request exhaust memory, which kills
// the process rather than failing the request. It is a variable only so a
// test can lift it to drive a request that runs far longer than its bound.
var maxBootstrap = 10000

// checkOptions validates a request's pipeline options: core.Options' own
// rules, then the service's bootstrap bound.
func checkOptions(opt core.Options) error {
	if err := opt.Validate(); err != nil {
		return &BadRequestError{Err: err}
	}
	if opt.Bootstrap > maxBootstrap {
		return badRequest("bootstrap count %d above the limit of %d", opt.Bootstrap, maxBootstrap)
	}
	return nil
}

// cellOptions are the pipeline options of one cell. Workers: 1 —
// parallelism lives at the cell level; letting every concurrent cell open
// its own NumCPU-wide fitting pool would oversubscribe the machine by
// workers × NumCPU. The service gate additionally bounds total fitting work
// across in-flight requests.
func cellOptions(req CellRequest) core.Options {
	return core.Options{UseSoftware: req.Soft, Bootstrap: req.Bootstrap,
		CILevel: req.CILevel, Seed: req.Seed, Workers: 1}
}

// PlanSweep validates a SweepRequest and decomposes it into the cell DAG
// without executing it. Validation order (version, options, workloads,
// machines, scale) is part of the API surface: it decides which error a
// doubly bad request reports. Identical validation and identical plan order
// are what make coordinator responses byte-identical to single-process
// ones.
func (s *Service) PlanSweep(req SweepRequest) (*PlannedSweep, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	opts := CellRequest{Soft: req.Soft, Bootstrap: req.Bootstrap, CILevel: req.CILevel, Seed: req.Seed}
	cellOpt := cellOptions(opts)
	if err := checkOptions(cellOpt); err != nil {
		return nil, err
	}
	// Sweeps accept value grids: each requested workload or machine entry
	// is a spec whose repeated keys expand into one instance per
	// combination (`memcached?skew=1.5,skew=3` is two scenarios), and
	// every instance carries its canonical spec string — the name all cache
	// keys, seeds and cells agree on.
	wlSpecs := req.Workloads
	if len(wlSpecs) == 0 {
		wlSpecs = workloads.Table4Names()
	}
	ws, err := expandAxis(wlSpecs, workloads.Lookup, sim.Workload.Name, "workloads")
	if err != nil {
		return nil, err
	}
	var machs []*machine.Config
	if len(req.Machines) == 0 {
		machs = machine.Presets()
	} else if machs, err = expandAxis(req.Machines, machine.Lookup, func(m *machine.Config) string { return m.Name }, "machines"); err != nil {
		return nil, err
	}
	scale, err := checkScale(req.Scale)
	if err != nil {
		return nil, err
	}

	// Bound the matrix BEFORE materializing a single cell: the per-spec
	// grid cap (spec.MaxGridInstances) bounds each entry, but the
	// workload × machine cross product — multiplied across list entries —
	// would otherwise let a hundred-byte request allocate millions of
	// cells. The ceiling is generous for real studies (the paper's full
	// matrix is 23×4) while keeping a hostile sweep from ballooning server
	// memory during planning.
	n := len(ws) * len(machs)
	if n > maxSweepCells {
		return nil, badRequest("sweep expands to %d cells (%d workloads x %d machines), more than the %d-cell limit",
			n, len(ws), len(machs), maxSweepCells)
	}

	plan := &PlannedSweep{Workloads: make([]string, len(ws)), Machines: make([]string, len(machs)), Cells: make([]PlannedCell, 0, n)}
	// One targets slice per machine, joined once, shared by that machine's
	// whole column.
	machTargets := make([][]int, len(machs))
	joined := make([]string, len(machs))
	for mi, m := range machs {
		plan.Machines[mi] = m.Name
		machTargets[mi] = sim.CoreRange(m.NumCores())
		joined[mi] = joinTargets(machTargets[mi])
	}
	fingerprint, _ := cellOpt.Fingerprint()
	// Every cell of a plan shares its options and a machine fixes its
	// targets, so the plan's series and fits are one-to-one: one set of fit
	// keys counts both.
	fitSeen := make(map[FitKey]struct{}, n)
	for wi, w := range ws {
		plan.Workloads[wi] = w.Name()
		for mi, m := range machs {
			cell := planCell(newScenario(w, m, m, req.MeasCores, scale, machTargets[mi]), opts)
			cell.FitKey = fitKey(plan.Workloads[wi], m.Name, cell.Request.MeasCores, scale, fingerprint, joined[mi])
			cell.Err = checkWindow(m, req.MeasCores)
			fitSeen[cell.FitKey] = struct{}{}
			plan.Cells = append(plan.Cells, cell)
		}
	}
	plan.DistinctSeries, plan.DistinctFits = len(fitSeen), len(fitSeen)
	// A request may narrow the service's fan-out, never widen it.
	plan.Workers = s.cfg.Workers
	if req.Workers > 0 {
		plan.Workers = min(req.Workers, s.cfg.Workers)
	}
	return plan, nil
}

// expandAxis resolves the entries of one sweep axis: each entry expands as
// a value grid (see expandGrid) and each instance resolves through lookup,
// in entry order. noun names the axis in the error for an axis longer than
// maxSweepCells.
func expandAxis[T any](entries []string, lookup func(string) (T, error), name func(T) string, noun string) ([]T, error) {
	var vals []T
	for _, entry := range entries {
		insts, err := expandGrid(entry)
		if err != nil {
			return nil, err
		}
		// One entry is one scenario set: instances that canonicalize
		// identically (`skew=2,skew=2.0`) collapse to one cell. Distinct
		// list entries stay distinct, as they always have.
		seen := make(map[string]bool, len(insts))
		for _, inst := range insts {
			v, err := lookup(inst)
			if err != nil {
				return nil, &BadRequestError{Err: err}
			}
			if seen[name(v)] {
				continue
			}
			seen[name(v)] = true
			vals = append(vals, v)
			// More instances than the total cell cap can never form a
			// valid matrix (the other axis has at least one entry); stop
			// expanding before a long entry list amasses unbounded
			// instances.
			if len(vals) > maxSweepCells {
				return nil, badRequest("sweep expands to more than %d %s", maxSweepCells, noun)
			}
		}
	}
	return vals, nil
}

// RouteKey is the shard identity of a scenario: the canonical workload and
// machine names, NUL-joined (both are spec-canonical, so neither contains a
// NUL). Deliberately coarser than the full fit key: every
// schedule, scale and option variant of one scenario routes to the same
// worker, so every schedule of the scenario is assembled from the samples
// that worker's store and memo already hold, and its fit memo sees every
// option variant of the series it owns.
//
//estima:canonical workload machine
func RouteKey(workload, machine string) string {
	return workload + "\x00" + machine
}

// Cell answers a CellRequest: exactly one sweep cell, executed through the
// same planner path as a cell inside a sweep, so the resulting SweepCell is
// byte-identical to the one a single-process sweep would emit. Validation
// mirrors PlanSweep's option checks and also rejects a window beyond the
// machine, which a sweep records in that cell instead; execution failures
// are recorded in the cell, not returned (the coordinator merges them into
// streams).
func (s *Service) Cell(ctx context.Context, req CellRequest) (*CellResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	if err := checkOptions(cellOptions(req)); err != nil {
		return nil, err
	}
	sc, err := resolveScenario(req.Workload, req.Machine, "", req.MeasCores, req.Scale)
	if err != nil {
		return nil, err
	}
	pc := planCell(sc, req)
	cell := s.RunCell(ctx, &pc)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CellResponse{APIVersion: APIVersion, Cell: cell}, nil
}

// RunCell is the service's own CellRunner: one planned cell through the
// planner. A cell the plan failed (see PlannedCell.Err) returns that error
// at once, with nothing simulated; Cell answers the same window with a 400.
func (s *Service) RunCell(ctx context.Context, pc *PlannedCell) SweepCell {
	r := &pc.Request
	cell := SweepCell{
		Workload:    r.Workload,
		Machine:     r.Machine,
		MeasCores:   r.MeasCores,
		TargetCores: pc.sc.target.NumCores(),
	}
	if pc.Err != nil {
		cell.Error = pc.Err.Error()
		return cell
	}
	pred, hit, err := s.predictScenario(ctx, &pc.sc, cellOptions(*r))
	cell.CacheHit = hit
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	cell.Stop = pred.ScalingStop()
	cell.TimeFull = pred.Time[len(pred.Time)-1]
	if pred.TimeLo != nil {
		cell.TimeLo = pred.TimeLo[len(pred.TimeLo)-1]
		cell.TimeHi = pred.TimeHi[len(pred.TimeHi)-1]
	}
	return cell
}

// SweepStream answers a SweepRequest incrementally: emit is called once per
// finished cell, strictly in plan order (workload-major, machine-minor) —
// cells execute across the worker pool, but a cell is only emitted after
// every earlier cell, so the stream is byte-deterministic — and the summary
// of the whole matrix is returned at the end. An emit error aborts the
// sweep and is returned. Sweep is this method buffered; the HTTP layer
// streams it as NDJSON and the CLI as `-format ndjson`.
func (s *Service) SweepStream(ctx context.Context, req SweepRequest, emit func(SweepCell) error) (*SweepSummary, error) {
	return s.sweepStream(ctx, req, s.RunCell, emit)
}

// sweepStream is SweepStream with each cell executed by run.
func (s *Service) sweepStream(ctx context.Context, req SweepRequest, run CellRunner, emit func(SweepCell) error) (*SweepSummary, error) {
	plan, err := s.PlanSweep(req)
	if err != nil {
		return nil, err
	}
	n := len(plan.Cells)
	cells := make([]SweepCell, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	// cctx skips the cells not yet started when the emitter gives up
	// (client gone) or the sweep context dies; ran closes once every
	// started cell has returned.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		pool.ForN(n, plan.Workers, func(i int) {
			if cctx.Err() != nil {
				return
			}
			cells[i] = run(cctx, &plan.Cells[i])
			close(done[i])
		})
	}()

	var emitErr error
	for i := 0; i < n && emitErr == nil; i++ {
		select {
		case <-done[i]:
			emitErr = emit(cells[i])
		case <-cctx.Done():
			emitErr = cctx.Err()
		}
	}
	cancel()
	<-ran
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if emitErr != nil {
		return nil, emitErr
	}

	sum := &SweepSummary{
		APIVersion:     APIVersion,
		Workloads:      plan.Workloads,
		Machines:       plan.Machines,
		Cells:          n,
		DistinctSeries: plan.DistinctSeries,
		DistinctFits:   plan.DistinctFits,
	}
	for _, c := range cells {
		if c.Error != "" {
			sum.Failures++
		}
	}
	return sum, nil
}
