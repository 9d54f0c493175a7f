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
		Gate:         s.sem,
	}
	if err := checkOptions(opt); err != nil {
		return nil, err
	}

	resp := &PredictResponse{APIVersion: APIVersion, ScaleRecorded: true}
	var (
		sc       scenario // a replayed series may leave w and mach nil
		measured *counters.Series
		pred     *core.Prediction
		err      error
	)
	if len(req.Series) > 0 {
		if sc.scale, err = checkScale(req.Scale); err != nil {
			return nil, err
		}
		if measured, err = counters.DecodeSeries(req.Series); err != nil {
			return nil, &BadRequestError{Err: err}
		}
		// The series may come from outside the simulator (a real perf
		// collector), so its workload and machine need not resolve — they
		// are only required for comparison and frequency scaling. A series
		// naming a parameterized spec resolves to that exact variant.
		if lw, err := workloads.Lookup(measured.Workload); err == nil {
			sc.w = lw
		}
		if lm, err := machine.Lookup(measured.Machine); err == nil {
			sc.mach = lm
		}
		// Re-measuring comparable behaviour needs the scale the series was
		// collected at; an externally collected file may not record it.
		if measured.Scale > 0 {
			sc.scale = measured.Scale
		} else {
			resp.ScaleRecorded = false
		}
		if sc.target, err = targetMachine(req.Target, sc.mach); err != nil {
			return nil, err
		}
		if sc.target == nil {
			return nil, badRequest("series machine %q is not a preset; name a target machine", measured.Machine)
		}
		sc.targets = sim.CoreRange(sc.target.NumCores())
	} else if sc, err = resolveScenario(req.Workload, req.Machine, req.Target, req.MeasCores, req.Scale); err != nil {
		return nil, err
	}
	// Comparison measures the target machine — the expensive step ESTIMA
	// avoids — and needs a registered workload to re-run.
	var compareScale float64
	if req.Compare && sc.w != nil {
		if compareScale, err = CompareScale(sc.scale, req.DataScale); err != nil {
			return nil, err
		}
	}
	if measured != nil {
		opt.FreqRatio = sc.freqRatio()
		// Replayed series have no store identity to key the planner's memo
		// by; run the pipeline directly, sharing the service CPU gate.
		if pred, err = core.PredictContext(ctx, measured, sc.targets, opt); err != nil {
			return nil, err
		}
		resp.Workload = measured.Workload
		resp.Machine = measured.Machine
		resp.Samples = len(measured.Samples)
	} else {
		// The simulate path goes through the sweep planner: the fitted
		// model is memoized, so a repeated request — or a sweep cell over
		// the same input — skips collection and fitting alike.
		if pred, resp.CacheHit, err = s.predictScenario(ctx, &sc, opt); err != nil {
			return nil, err
		}
		resp.Workload = sc.w.Name()
		resp.Machine = sc.mach.Name
		resp.MeasCores = sc.measCores
		resp.StoreDir = s.store.Dir()
		resp.Samples = len(pred.MeasuredCores)
	}
	resp.Scale = sc.scale
	resp.WorkloadKnown = sc.w != nil
	resp.MachineKnown = sc.mach != nil
	resp.Target = sc.target.Name
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

	if req.Compare && sc.w != nil {
		act, _, err := s.series(ctx, sc.w, sc.target, sc.targets, compareScale)
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

// CompareScale is the dataset scale a compared prediction measures its
// target at: the run's scale times the weak-scaling data scale (0 means 1),
// bounded like any scale. A prediction checks it before anything is
// simulated; one without comparison simulates nothing on the target, so it
// takes any finite data scale.
func CompareScale(scale, dataScale float64) (float64, error) {
	scale, err := checkScale(scale)
	if err != nil {
		return 0, err
	}
	product, err := checkScale(scale * core.Options{DatasetScale: dataScale}.Resolved().DatasetScale)
	if err != nil {
		return 0, badRequest("comparing at scale × data scale: %v", err)
	}
	return product, nil
}

// Sweep answers a SweepRequest: the workload × machine matrix, decomposed
// by the sweep planner into deduplicated (collect → fit → predict) steps
// and executed across a bounded worker pool. Cells land at their matrix
// index, so the response order is the deterministic workload × machine
// order, not completion order. Sweep is SweepStream buffered.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	return s.sweep(ctx, req, s.RunCell)
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
