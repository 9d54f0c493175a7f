package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// replay-boot: the paper's offline workflow. Set-up measures every Table-4
// app on Xeon20 over all 20 cores; requests replay the one-processor window
// (cores 1..10) inline, as `estima predict -from` sends it, with 100
// bootstrap replicates, and the full series is the ground truth. Replayed
// series bypass the memo and the store, so every request runs the fit
// search and the bootstrap refits, and no simulation.

const replayBootstrap = 100

type replayItem struct {
	workload string
	body     []byte
	window   *counters.Series
	truth    []float64 // seconds at 1..20 cores
}

type replayBench struct {
	env       *env
	cfg       *config
	sg        *single
	cl        *client
	items     []replayItem
	order     *roundOrder
	baseRound int

	mu    sync.Mutex
	first [][]byte          // each item's first response
	acc   map[int][]bandErr // phase-local request index → banded errors
}

func setupReplay(ctx context.Context, cfg *config, e *env) (bench, error) {
	m, err := machine.Lookup("Xeon20")
	if err != nil {
		return nil, err
	}
	names := workloads.Table4Names()
	ws := make([]sim.Workload, len(names))
	for i, n := range names {
		if ws[i], err = workloads.Lookup(n); err != nil {
			return nil, err
		}
	}
	cores := m.NumCores()
	samples := make([]counters.Sample, len(ws)*cores)
	errs := make([]error, len(samples))
	pool.ForN(len(samples), 0, func(i int) {
		samples[i], errs[i] = e.col.collect(ws[i/cores], m, i%cores+1, scale)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b := &replayBench{env: e, cfg: cfg, cl: newClient(e.tr), acc: map[int][]bandErr{}}
	meas := m.OneProcessorCores()
	for i, w := range ws {
		full := &counters.Series{Workload: w.Name(), Machine: m.Name, Scale: scale,
			Samples: samples[i*cores : (i+1)*cores]}
		full.Sort()
		win := &counters.Series{Workload: full.Workload, Machine: full.Machine, Scale: scale,
			Samples: full.Samples[:meas]}
		doc, err := counters.EncodeSeries(win)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.PredictRequest{Series: doc, Bootstrap: replayBootstrap})
		if err != nil {
			return nil, err
		}
		b.items = append(b.items, replayItem{workload: w.Name(), body: body, window: win, truth: full.Times()})
	}
	b.first = make([][]byte, len(b.items))
	b.order = newRoundOrder(cfg.seed, streamReplay, 0, len(b.items))
	if b.sg, err = newSingle("", e.col, e.tr, true); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *replayBench) clients() int { return 1 }

func (b *replayBench) roundOf(_, i int) int { return i / len(b.items) }

func (b *replayBench) do(ctx context.Context, _, i int) error {
	n := len(b.items)
	k := b.order.item(b.baseRound+i/n, i%n)
	it := b.items[k]
	out, err := b.cl.ok(ctx, http.MethodPost, b.sg.srv.URL+"/v1/predict", it.body)
	if err != nil {
		return err
	}
	var resp service.PredictResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("decoding %s: %w", it.workload, err)
	}
	if len(resp.Time) != len(it.truth) || len(resp.TimeLo) != len(resp.Time) || len(resp.TimeHi) != len(resp.Time) {
		return fmt.Errorf("%s: prediction without bands over %d cores", it.workload, len(it.truth))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first[k] == nil {
		b.first[k] = out
	} else if !bytes.Equal(b.first[k], out) {
		return fmt.Errorf("%s: replayed response differs from its first answer", it.workload)
	}
	b.acc[i] = bandErrors(resp.TargetCores, len(it.window.Samples), resp.Time, it.truth)
	return nil
}

func (b *replayBench) endPhase(p *phase) { b.baseRound += p.rounds[0] }

func (b *replayBench) snapshot(ctx context.Context) (snapshot, error) {
	fits, hits := b.sg.svc.FitCacheStats()
	return clientSnapshot(b.env, b.cl, snapshot{fits: fits, memoHits: hits}), nil
}

func (b *replayBench) check(*phase, snapshot) []string { return nil }

// accuracy scores whole rounds, each of which replays every app once.
func (b *replayBench) accuracy(p *phase, m metricSet) {
	b.mu.Lock()
	defer b.mu.Unlock()
	whole := p.attempted / len(b.items) * len(b.items)
	if whole == 0 {
		whole = p.attempted
	}
	reqs := make([][]bandErr, 0, whole)
	for i := 0; i < whole; i++ {
		reqs = append(reqs, b.acc[i])
	}
	setAccuracy(m, reqs)
	b.acc = map[int][]bandErr{}
}

// probe needs no check of its own: every traced answer was compared with
// the item's first, untraced one.
func (b *replayBench) probe(ctx context.Context, m metricSet) ([]string, error) {
	var items []probeSeries
	for _, it := range b.items[:8] {
		items = append(items, probeSeries{series: it.window, truth: it.truth})
	}
	scratch := filepath.Join(b.cfg.work, "probe-store")
	if err := probeData(ctx, b.env.tr, scratch, scratch, items, m); err != nil {
		return nil, err
	}
	// The coordinator answers replayed series itself, so the relay is probed
	// with the first app's same question asked by name.
	it := b.items[0]
	named := mustJSON(service.PredictRequest{Workload: it.workload, Machine: it.window.Machine, Scale: scale,
		Bootstrap: replayBootstrap})
	reqs := []probeReq{predictProbe(it.body, nil), predictProbe(b.items[1].body, nil),
		predictProbe(named, &scenario{Workload: it.workload, Machine: it.window.Machine})}
	plan := service.SweepRequest{Workloads: workloads.Table4Names(), Machines: []string{"Xeon20"}, Scale: scale}
	return nil, probeWithFleet(ctx, b.env, b.cfg, b.cl, reqs, b.sg, plan, m)
}

func (b *replayBench) close() { b.sg.close() }
