package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

// probeBootstrap is the replicate count of the bootstrap-stage probe: the
// count replay-boot requests carry, so the probe costs what they do.
const probeBootstrap = 100

// probeSeries is one measurement window the data probes feed the counters,
// store and core layers, plus the measured truth over the whole machine
// (actual seconds at 1..len(truth) cores) when it is known.
type probeSeries struct {
	series *counters.Series
	truth  []float64
}

// probeReq is one request the serving probes send every way the program
// can answer it: in process, over the single-process handler and, when the
// coordinator relays it to one worker, through the coordinator and straight
// to that worker.
type probeReq struct {
	endpoint     string
	method, path string
	body         []byte
	inproc       func(context.Context, *service.Service) (any, error)
	// route is the scenario the coordinator shards a relayed request by;
	// nil for the requests it answers itself (registry GETs, replayed
	// series) or fans out across workers (sweep, explore).
	route *scenario
}

// inprocCall adapts a typed Service method to a probe's in-process call,
// decoding the same body the HTTP paths send.
func inprocCall[Req, Resp any](method func(*service.Service, context.Context, Req) (*Resp, error), body []byte) func(context.Context, *service.Service) (any, error) {
	return func(ctx context.Context, svc *service.Service) (any, error) {
		var req Req
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return method(svc, ctx, req)
	}
}

// predictProbe is the probe form of one /v1/predict body.
func predictProbe(body []byte, route *scenario) probeReq {
	return probeReq{endpoint: "predict", method: http.MethodPost, path: "/v1/predict", body: body,
		inproc: inprocCall((*service.Service).Predict, body), route: route}
}

// spanTimer records probe spans: the probes run with request tracing off
// (their timings are the untraced paths), but every layer call they make
// is still kept as a span under one root per probed item.
type spanTimer struct {
	tr   *tracer
	root span
}

func (t *tracer) probeRoot(name string) *spanTimer {
	id := t.ids.Add(1)
	return &spanTimer{tr: t, root: span{ID: id, Req: id, Name: name, Start: int64(time.Since(t.epoch))}}
}

// time runs fn as a child span and returns its wall time in ms.
func (st *spanTimer) time(name string, fn func()) float64 {
	s := span{ID: st.tr.ids.Add(1), Parent: st.root.ID, Req: st.root.Req, Name: name,
		Start: int64(time.Since(st.tr.epoch))}
	fn()
	s.End = int64(time.Since(st.tr.epoch))
	st.tr.mu.Lock()
	st.tr.spans = append(st.tr.spans, s)
	st.tr.mu.Unlock()
	return float64(s.End-s.Start) / 1e6
}

func (st *spanTimer) finish() {
	st.root.End = int64(time.Since(st.tr.epoch))
	st.tr.mu.Lock()
	st.tr.spans = append(st.tr.spans, st.root)
	st.tr.mu.Unlock()
}

// seriesKey is the store key of a measured window.
func seriesKey(s *counters.Series, maxCores int) store.Key {
	return store.Key{Workload: s.Workload, Machine: s.Machine, MaxCores: maxCores,
		Scale: s.Scale, Engine: sim.EngineVersion}
}

// probeData times the counters, store and core layers on the workload's
// own measurement windows: codec round trips, store writes and reads
// (FindPrefix against liveStore, the store the workload's service filled),
// and every pipeline stage with the service's options, plus serial
// (Workers: 1) allocation counts taken with no load running.
func probeData(ctx context.Context, tr *tracer, scratch, liveStore string, items []probeSeries, m metricSet) error {
	st, err := store.Open(scratch)
	if err != nil {
		return err
	}
	live, err := store.Open(liveStore)
	if err != nil {
		return err
	}
	var (
		kb, enc, dec, put, get, find           []float64
		cats, refits, ex, sf, boot, diag, refu []float64
		exAllocs, bootAllocs                   []float64
		widths                                 []float64
		inside, points                         int
	)
	for _, it := range items {
		s := it.series
		pt := tr.probeRoot("probe.data")
		var doc []byte
		var perr error
		enc = append(enc, pt.time("counters.encode", func() { doc, perr = counters.EncodeSeries(s) }))
		if perr != nil {
			return perr
		}
		kb = append(kb, float64(len(doc))/1024)
		dec = append(dec, pt.time("counters.decode", func() { _, perr = counters.DecodeSeries(doc) }))
		if perr != nil {
			return perr
		}
		key := seriesKey(s, len(s.Samples))
		put = append(put, pt.time("store.put", func() { perr = st.Put(key, s) }))
		if perr != nil {
			return perr
		}
		var hit bool
		get = append(get, pt.time("store.get", func() { _, hit = st.Get(ctx, key) }))
		if !hit {
			return fmt.Errorf("store probe: %s missing right after Put", s.Workload)
		}
		find = append(find, pt.time("store.find_prefix", func() { live.FindPrefix(ctx, seriesKey(s, len(s.Samples)-1)) }))

		n := len(it.truth)
		if n == 0 {
			n = len(s.Samples) * 2
		}
		targets, err := core.Targets(sim.CoreRange(n))
		if err != nil {
			return err
		}
		opt := core.Options{Workers: runtime.GOMAXPROCS(0)}
		pl := core.NewPipeline(opt)
		var exo *core.Extrapolation
		ex = append(ex, pt.time("core.extrapolate", func() { exo, perr = pl.Extrapolate(ctx, s, targets) }))
		if perr != nil {
			return perr
		}
		var spc []float64
		pt.time("core.combine", func() { spc = pl.Combine(exo) })
		var ff *fit.Fit
		sf = append(sf, pt.time("core.select_factor", func() { ff, perr = pl.SelectFactor(s, targets, spc) }))
		if perr != nil {
			return perr
		}
		pt.time("core.times", func() { _, perr = pl.Times(ff, targets, spc) })
		if perr != nil {
			return perr
		}
		art := &core.FitArtifact{Series: s, Targets: targets, Extrapolation: exo, StallsPerCore: spc, FactorFit: ff}
		bopt := opt
		bopt.Bootstrap = probeBootstrap
		var pred *core.Prediction
		boot = append(boot, pt.time("core.finish", func() { pred, perr = core.NewPipeline(bopt).Finish(ctx, art) }))
		if perr != nil {
			return perr
		}
		diag = append(diag, pt.time("core.diagnose", func() { _, perr = pl.Diagnose(ctx, art) }))
		if perr != nil {
			return perr
		}
		pt.finish()

		serial := core.Options{Workers: 1}
		exAllocs = append(exAllocs, float64(mallocs(func() { _, perr = core.NewPipeline(serial).Extrapolate(ctx, s, targets) })))
		if perr != nil {
			return perr
		}
		serial.Bootstrap = probeBootstrap
		var serialMS float64
		bootAllocs = append(bootAllocs, float64(mallocs(func() {
			serialMS = timed(func() { _, perr = core.NewPipeline(serial).Finish(ctx, art) })
		})))
		if perr != nil {
			return perr
		}
		r := float64(probeBootstrap * (len(exo.Fits) + 1))
		cats = append(cats, float64(len(exo.Names)))
		refits = append(refits, r)
		refu = append(refu, serialMS*1000/r)

		for i := len(s.Samples); i < len(it.truth); i++ {
			points++
			if it.truth[i] >= pred.TimeLo[i] && it.truth[i] <= pred.TimeHi[i] {
				inside++
			}
			widths = append(widths, 100*(pred.TimeHi[i]-pred.TimeLo[i])/pred.Time[i])
		}
	}
	m.set("counters.series_kb", "KB", mean(kb))
	m.set("counters.encode_ms", "ms", median(enc))
	m.set("counters.decode_ms", "ms", median(dec))
	m.set("store.put_ms", "ms", median(put))
	m.set("store.get_ms", "ms", median(get))
	m.set("store.find_prefix_ms", "ms", median(find))
	m.set("core.categories_per_req", "count", mean(cats))
	m.set("core.extrapolate_ms", "ms", median(ex))
	m.set("core.select_factor_ms", "ms", median(sf))
	m.set("core.bootstrap_ms", "ms", median(boot))
	m.set("core.refits_per_req", "count", mean(refits))
	m.set("core.refit_us", "us", median(refu))
	m.set("core.diagnose_ms", "ms", median(diag))
	m.set("core.extrapolate_allocs", "count", mean(exAllocs))
	m.set("core.bootstrap_allocs", "count", mean(bootAllocs))
	cov := 0.0
	if points > 0 {
		cov = 100 * float64(inside) / float64(points)
	}
	m.set("core.band_coverage_pct", "%", cov)
	m.set("core.band_width_p50_pct", "%", median(widths))
	return nil
}

// probeServing sends every probe request each way the program can answer
// it, warm, and reports the medians: the service's own time in process,
// the JSON encoding of its response, what the single-process HTTP front end
// adds on top, and what the coordinator adds over the owning worker. It
// also times the sweep planner on plan.
func probeServing(ctx context.Context, tr *tracer, cl *client, reqs []probeReq, sg *single, fl *fleet, plan service.SweepRequest, m metricSet) error {
	var inproc, encode, overhead, relay []float64
	for _, r := range reqs {
		bases := []string{sg.srv.URL}
		direct := ""
		if r.route != nil {
			direct = fl.owner(*r.route).srv.URL
			bases = append(bases, fl.front.URL, direct)
		}
		send := func(base string) error {
			_, err := cl.ok(ctx, r.method, base+r.path, r.body)
			return err
		}
		// One untimed pass warms every path (the probe fleet may be cold).
		for _, base := range bases {
			if err := send(base); err != nil {
				return fmt.Errorf("%s probe: %w", r.endpoint, err)
			}
		}
		var perr error
		first := timed(func() { _, perr = r.inproc(ctx, sg.svc) })
		if perr != nil {
			return fmt.Errorf("%s probe in process: %w", r.endpoint, perr)
		}
		reps := min(max(int(300/max(first, 0.01)), 3), 25)
		var in, en, ht, co, di []float64
		for k := 0; k < reps; k++ {
			pt := tr.probeRoot("probe." + r.endpoint)
			var resp any
			in = append(in, pt.time("service.inproc", func() { resp, perr = r.inproc(ctx, sg.svc) }))
			if perr != nil {
				return perr
			}
			en = append(en, pt.time("service.encode", func() { _, perr = json.Marshal(resp) }))
			if perr != nil {
				return perr
			}
			ht = append(ht, pt.time("http.single", func() { perr = send(sg.srv.URL) }))
			if perr != nil {
				return perr
			}
			if direct != "" {
				co = append(co, pt.time("cluster.coordinator", func() { perr = send(fl.front.URL) }))
				if perr != nil {
					return perr
				}
				di = append(di, pt.time("cluster.direct", func() { perr = send(direct) }))
				if perr != nil {
					return perr
				}
			}
			pt.finish()
		}
		fmt.Printf("  probe %-9s in-process %8.3f ms  encode %7.3f ms  http %8.3f ms", r.endpoint, median(in), median(en), median(ht))
		if direct != "" {
			fmt.Printf("  coordinator %8.3f ms  worker %8.3f ms", median(co), median(di))
			relay = append(relay, median(co)-median(di))
		}
		fmt.Println()
		inproc = append(inproc, median(in))
		encode = append(encode, median(en))
		overhead = append(overhead, median(ht)-median(in)-median(en))
	}
	m.set("service.inproc_ms", "ms", mean(inproc))
	m.set("service.encode_ms", "ms", mean(encode))
	m.set("http.overhead_ms", "ms", mean(overhead))
	m.set("cluster.relay_overhead_ms", "ms", mean(relay))

	var planned *service.PlannedSweep
	var plans []float64
	for k := 0; k < 15; k++ {
		var err error
		plans = append(plans, timed(func() { planned, err = sg.svc.PlanSweep(plan) }))
		if err != nil {
			return fmt.Errorf("plan probe: %w", err)
		}
	}
	m.set("service.plan_ms", "ms", median(plans))
	m.set("cluster.cells_per_sweep", "count", float64(len(planned.Cells)))
	return nil
}
