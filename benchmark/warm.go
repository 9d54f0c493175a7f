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

// warm-cluster: two clients drive one coordinator over two workers, all in
// process over loopback HTTP, with a request mix that set-up warms. Repeat
// questions run no simulation and no fit: the time goes to HTTP, JSON,
// admission, relay, coalescing and memo lookups.

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request literals are marshalled
	}
	return b
}

// warmMix is the request mix: a fanned-out Table-4 sweep on Xeon20 and
// Opteron (38 cells), an explore over a cached region, a diagnose, a
// bootstrapped and compared predict, one sweep cell, and the registry GETs.
func warmMix() []probeReq {
	sweep := mustJSON(service.SweepRequest{Machines: []string{"Xeon20", "Opteron"}, Scale: scale})
	explore := mustJSON(service.ExploreRequest{Workload: "memcached?skew=1.5,skew=2.5,skew=3.5,setpct=0,setpct=10,setpct=20",
		Machine: "Xeon20", Scale: scale, Budget: 4})
	diagnose := mustJSON(service.DiagnoseRequest{Workload: "intruder", Machine: "Xeon20", Scale: scale})
	predict := mustJSON(service.PredictRequest{Workload: "genome", Machine: "Xeon20", Scale: scale,
		Bootstrap: 100, Compare: true})
	cell := mustJSON(service.CellRequest{Workload: "kmeans", Machine: "Opteron", Scale: scale})
	list := func(verbose bool, project func(*service.ListResponse) any) func(context.Context, *service.Service) (any, error) {
		return func(ctx context.Context, svc *service.Service) (any, error) {
			resp, err := svc.List(ctx, service.ListRequest{Verbose: verbose})
			if err != nil {
				return nil, err
			}
			return project(resp), nil
		}
	}
	return []probeReq{
		{endpoint: "sweep", method: http.MethodPost, path: "/v1/sweep", body: sweep,
			inproc: inprocCall((*service.Service).Sweep, sweep)},
		{endpoint: "explore", method: http.MethodPost, path: "/v1/explore", body: explore,
			inproc: inprocCall((*service.Service).Explore, explore)},
		{endpoint: "diagnose", method: http.MethodPost, path: "/v1/diagnose", body: diagnose,
			route: &scenario{"intruder", "Xeon20"}, inproc: inprocCall((*service.Service).Diagnose, diagnose)},
		{endpoint: "predict", method: http.MethodPost, path: "/v1/predict", body: predict,
			route: &scenario{"genome", "Xeon20"}, inproc: inprocCall((*service.Service).Predict, predict)},
		{endpoint: "cell", method: http.MethodPost, path: "/v1/cell", body: cell,
			route: &scenario{"kmeans", "Opteron"}, inproc: inprocCall((*service.Service).Cell, cell)},
		{endpoint: "workloads", method: http.MethodGet, path: "/v1/workloads?schemas=1",
			inproc: list(true, func(r *service.ListResponse) any {
				return service.WorkloadsResponse{APIVersion: r.APIVersion, Workloads: r.Workloads, Families: r.WorkloadFamilies}
			})},
		{endpoint: "machines", method: http.MethodGet, path: "/v1/machines",
			inproc: list(false, func(r *service.ListResponse) any {
				return service.MachinesResponse{APIVersion: r.APIVersion, Machines: r.Machines}
			})},
	}
}

type warmBench struct {
	env       *env
	cfg       *config
	fl        *fleet
	cl        *client
	mix       []probeReq
	first     [][]byte // each entry's set-up answer
	pred      *service.PredictResponse
	order     []*roundOrder // per client
	baseRound []int
}

func setupWarm(ctx context.Context, cfg *config, e *env) (bench, error) {
	dir, err := freshDir(cfg.work, "fleet")
	if err != nil {
		return nil, err
	}
	b := &warmBench{env: e, cfg: cfg, cl: newClient(e.tr), mix: warmMix(), baseRound: make([]int, 2)}
	for c := range b.baseRound {
		b.order = append(b.order, newRoundOrder(cfg.seed, streamWarm, c, len(b.mix)))
	}
	if b.fl, err = newFleet(dir, e.col, e.tr); err != nil {
		return nil, err
	}
	// The cold pass: every entry once through the coordinator, the sweep
	// fanned out per cell. Its answers are what every repeat must return.
	for _, me := range b.mix {
		out, err := b.cl.ok(ctx, me.method, b.fl.front.URL+me.path, me.body)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warming %s: %w", me.endpoint, err)
		}
		if !json.Valid(out) {
			b.close()
			return nil, fmt.Errorf("warming %s: response is not JSON", me.endpoint)
		}
		b.first = append(b.first, out)
		if me.endpoint == "predict" {
			b.pred = &service.PredictResponse{}
			if err := json.Unmarshal(out, b.pred); err != nil {
				b.close()
				return nil, fmt.Errorf("decoding predict: %w", err)
			}
		}
	}
	return b, nil
}

func (b *warmBench) clients() int { return 2 }

func (b *warmBench) roundOf(_, i int) int { return i / len(b.mix) }

func (b *warmBench) do(ctx context.Context, c, i int) error {
	n := len(b.mix)
	k := b.order[c].item(b.baseRound[c]+i/n, i%n)
	me := b.mix[k]
	out, err := b.cl.ok(ctx, me.method, b.fl.front.URL+me.path, me.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, b.first[k]) {
		return fmt.Errorf("%s: response differs from its first answer", me.endpoint)
	}
	return nil
}

func (b *warmBench) endPhase(p *phase) {
	for c := range b.baseRound {
		b.baseRound[c] += p.rounds[c]
	}
}

func (b *warmBench) snapshot(ctx context.Context) (snapshot, error) {
	started, hits, err := b.fl.coalesce(ctx, b.cl)
	if err != nil {
		return snapshot{}, err
	}
	var dirs []string
	for _, w := range b.fl.workers {
		dirs = append(dirs, w.dir)
	}
	files, size := storeUsage(dirs...)
	fits, memo := b.fl.fitStats()
	return clientSnapshot(b.env, b.cl, snapshot{storeFiles: files, storeBytes: size, fits: fits, memoHits: memo,
		coalStarted: started, coalHits: hits}), nil
}

// check: a warmed fleet answers repeats without fitting anything.
func (b *warmBench) check(p *phase, d snapshot) []string {
	if d.fits != 0 {
		return []string{fmt.Sprintf("warm fleet computed %d fits during the measured phase; want 0", d.fits)}
	}
	return nil
}

// accuracy scores the mix's compared predict (every repeat returns the
// same bytes, so its first answer stands for all).
func (b *warmBench) accuracy(_ *phase, m metricSet) {
	setAccuracy(m, [][]bandErr{bandErrors(b.pred.TargetCores, b.pred.MeasCores, b.pred.Time, b.pred.Actual)})
}

// probe needs no check of its own: every traced answer was compared with
// the entry's untraced set-up answer.
func (b *warmBench) probe(ctx context.Context, m metricSet) ([]string, error) {
	return nil, b.probeLayers(ctx, m)
}

func (b *warmBench) probeLayers(ctx context.Context, m metricSet) error {
	dir, err := freshDir(b.cfg.work, "warm-single")
	if err != nil {
		return err
	}
	sg, err := newSingle(dir, b.env.col, b.env.tr, false)
	if err != nil {
		return err
	}
	defer sg.close()
	var items []probeSeries
	if err := probeServing(ctx, b.env.tr, b.cl, b.mix, sg, b.fl, service.SweepRequest{Machines: []string{"Xeon20", "Opteron"}, Scale: scale}, m); err != nil {
		return err
	}
	for _, me := range b.mix {
		if me.route == nil {
			continue
		}
		w, err := workloads.Lookup(me.route.Workload)
		if err != nil {
			return err
		}
		mc, err := machine.Lookup(me.route.Machine)
		if err != nil {
			return err
		}
		win, _, err := sg.svc.Series(ctx, w, mc, mc.OneProcessorCores(), scale)
		if err != nil {
			return err
		}
		full, _, err := sg.svc.Series(ctx, w, mc, mc.NumCores(), scale)
		if err != nil {
			return err
		}
		items = append(items, probeSeries{series: win, truth: full.Times()})
	}
	return probeData(ctx, b.env.tr, filepath.Join(b.cfg.work, "probe-store"), b.fl.workers[0].dir, items, m)
}

func (b *warmBench) close() {
	if b.fl != nil {
		b.fl.close()
	}
}
