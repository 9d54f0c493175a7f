package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"

	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/workloads"
)

// cold-predict: one client posts never-seen PredictRequests with compare
// set (the CLI default) to a single-process handler backed by a fresh
// store. Every request simulates its measurement window and the full target
// machine, fits, and writes the store.

// coldWarmup are the scenarios each set-up predicts once, so lazy
// initialization is paid before timing and set-up time is more than one
// request's noise; intruder-batch lies outside every stratum grid.
var coldWarmup = []scenario{
	{Workload: "intruder-batch", Machine: "Xeon20"},
	{Workload: "intruder-batch?batch=12", Machine: "Xeon20"},
	{Workload: "intruder-batch?batch=16", Machine: "Xeon20"},
}

type coldBench struct {
	env   *env
	cfg   *config
	sg    *single
	cl    *client
	flat  []scenario
	round []int // round[i] is the schedule round of flat[i]
	base  int   // flat index of the current phase's first request
	// lastBase and lastN locate the phase that ended last in flat.
	lastBase, lastN int
	// acc[i] holds request i's banded errors once it succeeded.
	acc [][]bandErr
}

func setupCold(ctx context.Context, cfg *config, e *env) (bench, error) {
	rounds, err := coldSchedule(cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &coldBench{env: e, cfg: cfg, cl: newClient(e.tr)}
	for r, scs := range rounds {
		for _, sc := range scs {
			b.flat = append(b.flat, sc)
			b.round = append(b.round, r)
		}
	}
	b.acc = make([][]bandErr, len(b.flat))
	dir, err := freshDir(cfg.work, "cold-store")
	if err != nil {
		return nil, err
	}
	if b.sg, err = newSingle(dir, e.col, e.tr, true); err != nil {
		return nil, err
	}
	for _, sc := range coldWarmup {
		if _, err := b.predict(ctx, sc); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func coldBody(sc scenario) []byte {
	body, _ := json.Marshal(service.PredictRequest{Workload: sc.Workload, Machine: sc.Machine,
		Scale: scale, Compare: true})
	return body
}

// predict posts one cold prediction and checks its shape.
func (b *coldBench) predict(ctx context.Context, sc scenario) (*service.PredictResponse, error) {
	out, err := b.cl.ok(ctx, http.MethodPost, b.sg.srv.URL+"/v1/predict", coldBody(sc))
	if err != nil {
		return nil, err
	}
	var resp service.PredictResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, fmt.Errorf("decoding %s on %s: %w", sc.Workload, sc.Machine, err)
	}
	switch {
	case resp.CacheHit:
		return nil, fmt.Errorf("%s on %s: never-seen scenario answered from the store", sc.Workload, sc.Machine)
	case !resp.Compared || len(resp.Actual) != len(resp.Time) || len(resp.Time) != len(resp.TargetCores):
		return nil, fmt.Errorf("%s on %s: incomplete comparison", sc.Workload, sc.Machine)
	}
	return &resp, nil
}

func (b *coldBench) clients() int { return 1 }

func (b *coldBench) roundOf(_, i int) int {
	if b.base+i >= len(b.flat) {
		return -1
	}
	return b.round[b.base+i] - b.round[b.base]
}

func (b *coldBench) do(ctx context.Context, _, i int) error {
	resp, err := b.predict(ctx, b.flat[b.base+i])
	if err != nil {
		return err
	}
	b.acc[b.base+i] = bandErrors(resp.TargetCores, resp.MeasCores, resp.Time, resp.Actual)
	return nil
}

func (b *coldBench) endPhase(p *phase) {
	b.lastBase, b.lastN = b.base, p.attempted
	b.base += p.attempted
}

func (b *coldBench) snapshot(ctx context.Context) (snapshot, error) {
	files, size := storeUsage(b.sg.dir)
	fits, hits := b.sg.svc.FitCacheStats()
	return clientSnapshot(b.env, b.cl, snapshot{storeFiles: files, storeBytes: size, fits: fits, memoHits: hits}), nil
}

// check: every request fitted exactly once and none was answered from the
// fitted-model memo.
func (b *coldBench) check(p *phase, d snapshot) []string {
	if d.fits != int64(p.attempted) || d.memoHits != 0 {
		return []string{fmt.Sprintf("%d cold requests computed %d fits with %d memo hits; want one fit each and none",
			p.attempted, d.fits, d.memoHits)}
	}
	return nil
}

// accuracy scores the phase's whole schedule rounds (each visits every
// stratum once), so every run weighs the strata alike.
func (b *coldBench) accuracy(p *phase, m metricSet) {
	end := b.lastBase + b.lastN
	if end < len(b.round) {
		// Drop the round the deadline cut short.
		for r := b.round[end]; end > b.lastBase && b.round[end-1] == r; end-- {
		}
	}
	setAccuracy(m, b.acc[b.lastBase:end])
}

// coldTwin is the scenario the traced run answers twice, untraced and
// traced, each time on a fresh store at the same path; it lies outside every
// stratum grid.
var coldTwin = scenario{Workload: "intruder-batch?batch=4", Machine: "Xeon20"}

// probe checks that tracing leaves cold answers byte-identical (cold
// scenarios never repeat within a run, so no traced answer has an untraced
// twin otherwise), then runs the layer probes.
func (b *coldBench) probe(ctx context.Context, m metricSet) ([]string, error) {
	var answers [2][]byte
	for i := range answers {
		dir, err := freshDir(b.cfg.work, "twin-store")
		if err != nil {
			return nil, err
		}
		sg, err := newSingle(dir, b.env.col, b.env.tr, true)
		if err != nil {
			return nil, err
		}
		b.env.tr.on.Store(i == 1)
		answers[i], err = b.cl.ok(ctx, http.MethodPost, sg.srv.URL+"/v1/predict", coldBody(coldTwin))
		b.env.tr.on.Store(false)
		sg.close()
		if err != nil {
			return nil, err
		}
	}
	var bad []string
	if !bytes.Equal(answers[0], answers[1]) {
		bad = append(bad, fmt.Sprintf("%s on %s: traced answer differs from the untraced one", coldTwin.Workload, coldTwin.Machine))
	}
	return bad, b.probeLayers(ctx, m)
}

// coldProbes is how many scenarios the layer probes take from the start of
// round 0: every run completes that round, so the seed alone picks them,
// and their series are already in the store.
const coldProbes = 8

func (b *coldBench) probeLayers(ctx context.Context, m metricSet) error {
	var items []probeSeries
	var reqs []probeReq
	for _, sc := range b.flat[:coldProbes] {
		w, err := workloads.Lookup(sc.Workload)
		if err != nil {
			return err
		}
		mc, err := machine.Lookup(sc.Machine)
		if err != nil {
			return err
		}
		win, _, err := b.sg.svc.Series(ctx, w, mc, mc.OneProcessorCores(), scale)
		if err != nil {
			return err
		}
		full, _, err := b.sg.svc.Series(ctx, w, mc, mc.NumCores(), scale)
		if err != nil {
			return err
		}
		items = append(items, probeSeries{series: win, truth: full.Times()})
		if len(reqs) < 3 {
			reqs = append(reqs, predictProbe(coldBody(sc), &sc))
		}
	}
	if err := probeData(ctx, b.env.tr, filepath.Join(b.cfg.work, "probe-store"), b.sg.dir, items, m); err != nil {
		return err
	}
	var plan service.SweepRequest
	for _, it := range items {
		plan.Workloads = append(plan.Workloads, it.series.Workload)
	}
	plan.Machines = []string{"Xeon20", "Opteron"}
	plan.Scale = scale
	return probeWithFleet(ctx, b.env, b.cfg, b.cl, reqs, b.sg, plan, m)
}

func (b *coldBench) close() { b.sg.close() }
