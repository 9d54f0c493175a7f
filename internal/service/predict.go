package service

import (
	"context"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Predict answers a PredictRequest: one full ESTIMA pipeline run — measure
// (or replay) at low core counts, extrapolate every stall category, fit the
// scaling factor, predict the target machine, and optionally measure the
// target for comparison. Cancelling ctx aborts measurement and the
// pipeline's worker pools.
func (s *Service) Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	opt := core.Options{
		UseSoftware:  req.Soft,
		Checkpoints:  req.Checkpoints,
		DatasetScale: req.DataScale,
		Bootstrap:    req.Bootstrap,
		CILevel:      req.CILevel,
		Workers:      s.cfg.Workers,
		// The service semaphore gates fitting and bootstrap work too, so
		// concurrent requests share one CPU budget instead of each opening
		// a full-width pool.
		Gate: s.sem,
	}
	if err := opt.Validate(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	if err := checkBootstrap(req.Bootstrap, req.CILevel); err != nil {
		return nil, err
	}
	scale := defaultScale(req.Scale)

	resp := &PredictResponse{APIVersion: APIVersion, ScaleRecorded: true}
	var (
		w         sim.Workload    // nil when a replayed series names no registered workload
		mm        *machine.Config // nil when a replayed series names no preset machine
		measured  *counters.Series
		measCores int
	)
	if len(req.Series) > 0 {
		var err error
		if measured, err = counters.DecodeSeries(req.Series); err != nil {
			return nil, &BadRequestError{Err: err}
		}
		// The series may come from outside the simulator (a real perf
		// collector), so its workload and machine need not resolve — they
		// are only required for comparison and frequency scaling. A series
		// naming a parameterized spec resolves to that exact variant.
		if lw, err := workloads.Lookup(measured.Workload); err == nil {
			w = lw
		}
		if lm, err := machine.Lookup(measured.Machine); err == nil {
			mm = lm
		}
		// Re-measuring comparable behaviour needs the scale the series was
		// collected at; an externally collected file may not record it.
		if measured.Scale > 0 {
			scale = measured.Scale
		} else {
			resp.ScaleRecorded = false
		}
		resp.Workload = measured.Workload
		resp.Machine = measured.Machine
	} else {
		var err error
		if w, mm, err = resolve(req.Workload, req.Machine); err != nil {
			return nil, err
		}
		measCores = req.MeasCores
		if measCores <= 0 {
			measCores = mm.OneProcessorCores()
		}
		resp.Workload = w.Name()
		resp.Machine = mm.Name
		resp.MeasCores = measCores
	}
	resp.Scale = scale
	resp.WorkloadKnown = w != nil
	resp.MachineKnown = mm != nil

	tm := mm
	if req.Target != "" {
		var err error
		if tm, err = machine.Lookup(req.Target); err != nil {
			return nil, &BadRequestError{Err: err}
		}
	}
	if tm == nil {
		return nil, badRequest("series machine %q is not a preset; name a target machine", measured.Machine)
	}
	resp.Target = tm.Name
	if mm != nil {
		opt.FreqRatio = mm.FreqGHz / tm.FreqGHz
	}

	targets := sim.CoreRange(tm.NumCores())
	var pred *core.Prediction
	if measured != nil {
		// Replayed series have no store identity to key the planner's memo
		// by; run the pipeline directly, sharing the service CPU gate.
		var err error
		if pred, err = core.PredictContext(ctx, measured, targets, opt); err != nil {
			return nil, err
		}
		resp.Samples = len(measured.Samples)
	} else {
		// The simulate path goes through the sweep planner: the fitted
		// model is memoized, so a repeated request — or a sweep cell over
		// the same input — skips collection and fitting alike.
		var err error
		if pred, resp.CacheHit, err = s.predicted(ctx, w, mm, measCores, scale, targets, opt); err != nil {
			return nil, err
		}
		resp.StoreDir = s.store.Dir()
		resp.Samples = len(pred.MeasuredCores)
	}
	resp.CategoryFits = map[string]string{}
	for cat, f := range pred.CategoryFits {
		resp.CategoryFits[cat] = f.String()
	}
	resp.FactorFit = pred.FactorFit.String()
	resp.Stability = pred.Stability
	resp.FactorStability = pred.FactorStability
	resp.Bootstraps = pred.Bootstraps
	resp.CILevel = pred.CILevel
	resp.ScalingStop = pred.ScalingStop()
	resp.TargetCores = make([]int, len(pred.TargetCores))
	for i, c := range pred.TargetCores {
		resp.TargetCores[i] = int(c)
	}
	resp.Time = pred.Time
	resp.TimeLo = pred.TimeLo
	resp.TimeHi = pred.TimeHi

	// Comparison measures the target machine — the expensive step ESTIMA
	// avoids — and needs a registered workload to re-run.
	if req.Compare && w != nil {
		dataScale := req.DataScale
		if dataScale <= 0 {
			dataScale = 1
		}
		act, _, err := s.series(ctx, w, tm, sim.CoreRange(tm.NumCores()), scale*dataScale)
		if err != nil {
			return nil, err
		}
		resp.Compared = true
		resp.Actual = act.Times()
		resp.ErrorPct = make([]float64, len(resp.Time))
		for i := range resp.Time {
			resp.ErrorPct[i] = stats.AbsPctErr(resp.Time[i], resp.Actual[i])
		}
	}
	return resp, nil
}

// Sweep answers a SweepRequest: the workload × machine matrix, decomposed
// by the sweep planner into deduplicated (collect → fit → predict) steps
// and executed across a bounded worker pool. Cells land at their matrix
// index, so the response order is the deterministic workload × machine
// order, not completion order. Sweep is SweepStream buffered.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	return s.sweep(ctx, req, s.runCell)
}

// sweep is Sweep with each cell executed by run.
func (s *Service) sweep(ctx context.Context, req SweepRequest, run CellRunner) (*SweepResponse, error) {
	var cells []SweepCell
	sum, err := s.sweepStream(ctx, req, run, func(c SweepCell) error {
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResponse{
		APIVersion: APIVersion,
		Workloads:  sum.Workloads,
		Machines:   sum.Machines,
		Cells:      cells,
		Failures:   sum.Failures,
	}, nil
}
