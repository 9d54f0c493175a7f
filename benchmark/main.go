// Command benchmark is ESTIMA's end-to-end benchmark. One seeded command
// drives one of three closed-loop workloads through the real HTTP handlers
// (service.NewHandler, cluster.NewHandler) over loopback sockets, checks
// every answer, and prints the end-to-end metrics; with -trace 1 it instead
// attributes the workload's time to the repository's layers by timing calls
// into each layer's public functions from this package, and reports what
// that tracing costs.
//
//	go run . -workload cold-predict -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. A failed correctness check exits 1 after printing it.
//
//estima:timing the benchmark measures wall-clock latency, throughput and span durations
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// scale is the dataset scale of every request: bench_test.go's, because at
// it "the curves keep their shape".
const scale = 0.25

// setupReps is how many times a run builds its system under test; setup_s
// is their median, and the last one is measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// work holds the run's stores; traces keeps the span files.
	work, traces string
}

// snapshot is the program-side counters a phase is bracketed by.
type snapshot struct {
	simCalls, simNanos    int64
	storeFiles            int
	storeBytes            int64
	fits, memoHits        int64
	coalStarted, coalHits int64
	// The benchmark client's own counters: requests answered, body bytes
	// sent and received, 429 rejections.
	httpReqs, httpSent, httpRecv, http429 int64
}

func (a snapshot) add(b snapshot) snapshot {
	return snapshot{a.simCalls + b.simCalls, a.simNanos + b.simNanos,
		a.storeFiles + b.storeFiles, a.storeBytes + b.storeBytes,
		a.fits + b.fits, a.memoHits + b.memoHits,
		a.coalStarted + b.coalStarted, a.coalHits + b.coalHits,
		a.httpReqs + b.httpReqs, a.httpSent + b.httpSent, a.httpRecv + b.httpRecv, a.http429 + b.http429}
}

func (a snapshot) sub(b snapshot) snapshot {
	return snapshot{a.simCalls - b.simCalls, a.simNanos - b.simNanos,
		a.storeFiles - b.storeFiles, a.storeBytes - b.storeBytes,
		a.fits - b.fits, a.memoHits - b.memoHits,
		a.coalStarted - b.coalStarted, a.coalHits - b.coalHits,
		a.httpReqs - b.httpReqs, a.httpSent - b.httpSent, a.httpRecv - b.httpRecv, a.http429 - b.http429}
}

// bench is one workload's system under test, built by its setup function.
type bench interface {
	clients() int
	// roundOf maps client c's i-th request of the next phase to its
	// schedule round, or -1 past the end of the schedule.
	roundOf(c, i int) int
	// do sends client c's i-th request of the current phase and checks it.
	do(ctx context.Context, c, i int) error
	// endPhase closes a phase: the next one continues the schedule.
	endPhase(p *phase)
	snapshot(ctx context.Context) (snapshot, error)
	// check returns the phase's failed correctness checks.
	check(p *phase, d snapshot) []string
	// accuracy adds the prediction-error metrics of the phase.
	accuracy(p *phase, m metricSet)
	// probe adds the per-layer metrics measured by calling into layers and
	// returns the traced run's failed correctness checks.
	probe(ctx context.Context, m metricSet) ([]string, error)
	close()
}

type workloadDef struct {
	name  string
	setup func(ctx context.Context, cfg *config, env *env) (bench, error)
}

// env is what every setup shares: one tracer and one simulation hook.
type env struct {
	tr  *tracer
	col *collector
}

var workloadDefs = []workloadDef{
	{"cold-predict", setupCold},
	{"replay-boot", setupReplay},
	{"warm-cluster", setupWarm},
}

//go:embed metrics.json
var catalogJSON []byte

// catalogEntry documents one metric: its unit and direction, the layer it
// measures, and which end-to-end metric on which workload it should move.
type catalogEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Kind   string `json:"kind"`
	Layer  string `json:"layer"`
	What   string `json:"what"`
	Moves  []struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"moves,omitempty"`
}

func catalog() ([]catalogEntry, error) {
	var c []catalogEntry
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return c, nil
}

// conform fails unless m holds exactly the catalogued metrics of the run's
// kind, each with its catalogued unit.
func conform(m metricSet, traced bool) error {
	cat, err := catalog()
	if err != nil {
		return err
	}
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	want := map[string]string{}
	for _, e := range cat {
		if e.Kind == kind {
			want[e.Name] = e.Unit
		}
	}
	var problems []string
	for name, unit := range want {
		got, ok := m[name]
		switch {
		case !ok:
			problems = append(problems, "missing "+name)
		case got.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, catalogued %q", name, got.Unit, unit))
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			problems = append(problems, "uncatalogued "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match metrics.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-predict, replay-boot or warm-cluster")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every request is generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for the run's stores")
	flag.StringVar(&cfg.traces, "traces", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one invocation: set up (setupReps times), measure, check.
func run(ctx context.Context, cfg *config) (*result, error) {
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == cfg.workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, fmt.Sprintf("%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	tr := newTracer()
	e := &env{tr: tr, col: &collector{tr: tr}}

	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		// Every set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		b, err = def.setup(ctx, cfg, e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	res := &result{Correct: true, Metrics: metricSet{}}
	measure := func(more func(c, i int) bool) (*phase, snapshot, error) {
		before, err := b.snapshot(ctx)
		if err != nil {
			return nil, snapshot{}, err
		}
		p := closedLoop(b.clients(), more, func(c, i int) error { return b.do(ctx, c, i) })
		after, err := b.snapshot(ctx)
		if err != nil {
			return nil, snapshot{}, err
		}
		if err := ctx.Err(); err != nil {
			return nil, snapshot{}, err
		}
		d := after.sub(before)
		p.rounds = make([]int, b.clients())
		for c, n := range p.perClient {
			if n > 0 {
				p.rounds[c] = b.roundOf(c, n-1) + 1
			}
		}
		b.endPhase(p)
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, f := range p.failures {
			fmt.Printf("FAILED %s\n", f)
		}
		if bad := b.check(p, d); len(bad) > 0 {
			res.Failed += len(bad)
			for _, f := range bad {
				fmt.Printf("FAILED check: %s\n", f)
			}
		}
		if p.completed() == 0 {
			return nil, snapshot{}, errors.New("no request completed")
		}
		return p, d, nil
	}

	fmt.Printf("%s seed %d: setup %.3fs (median of %d)\n", cfg.workload, cfg.seed, median(setups), setupReps)
	if !cfg.trace {
		p, _, err := measure(timeBounded(b, time.Now().Add(time.Duration(cfg.seconds)*time.Second), false))
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		m.set("setup_s", "s", median(setups))
		m.set("throughput_rps", "req/s", p.throughput())
		m.set("latency_p50_ms", "ms", p.quantile(0.50))
		m.set("latency_p90_ms", "ms", p.quantile(0.90))
		m.set("latency_p99_ms", "ms", p.quantile(0.99))
		m.set("cpu_ms_per_req", "ms", p.cpuPerReq())
		m.set("heap_peak_mb", "MB", float64(p.heapPeak)/(1<<20))
		b.accuracy(p, m)
		fmt.Printf("requests: sent %d, succeeded %d, failed %d in %.2fs\n", p.attempted, p.completed(), p.failed, p.elapsed.Seconds())
	} else {
		// Untraced and traced quarters alternate (untraced, traced,
		// untraced, traced), each the same number of whole schedule rounds,
		// so the difference of the two halves is the tracing overhead and
		// host drift over the run falls out of it.
		q0, _, err := measure(timeBounded(b, time.Now().Add(time.Duration(cfg.seconds)*time.Second/4), true))
		if err != nil {
			return nil, err
		}
		spans := 0
		p0, p1, d := q0, (*phase)(nil), snapshot{}
		for q := 1; q < 4; q++ {
			traced := q%2 == 1
			tr.on.Store(traced)
			before := tr.count()
			pq, dq, err := measure(roundBounded(b, q0.rounds))
			tr.on.Store(false)
			if err != nil {
				return nil, err
			}
			if !traced {
				p0 = p0.merge(pq)
				continue
			}
			spans += tr.count() - before
			p1, d = p1.merge(pq), d.add(dq)
		}
		m := res.Metrics
		phaseLayers(p0, p1, d, spans, m)
		sampleOps(e.col, m)
		bad, err := b.probe(ctx, m)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.Failed += len(bad)
		for _, f := range bad {
			fmt.Printf("FAILED check: %s\n", f)
		}
		fmt.Printf("requests: untraced %d in %.2fs, traced %d in %.2fs, failed %d\n",
			p0.completed(), p0.elapsed.Seconds(), p1.completed(), p1.elapsed.Seconds(), p0.failed+p1.failed)
		path := filepath.Join(cfg.traces, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		sum, err := tr.write(path)
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s; self time by span:\n", path)
		for _, s := range sum {
			fmt.Printf("  %-24s %7d spans  total %10.1f ms  self %10.1f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	res.Correct = res.Failed == 0
	if err := conform(res.Metrics, cfg.trace); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// phaseLayers adds the per-layer metrics read off the two halves of a
// traced run: p0 untraced, p1 traced, d the program counters over p1.
func phaseLayers(p0, p1 *phase, d snapshot, spans int, m metricSet) {
	n := float64(p1.completed())
	m.set("sim.samples_per_req", "count", float64(d.simCalls)/n)
	m.set("sim.busy_pct", "%", 100*float64(d.simNanos)/(float64(p1.elapsed)*float64(runtime.GOMAXPROCS(0))))
	m.set("store.puts_per_req", "count", float64(d.storeFiles)/n)
	m.set("store.kb_written_per_req", "KB", float64(d.storeBytes)/1024/n)
	m.set("service.fits_computed_per_req", "count", float64(d.fits)/n)
	m.set("service.fit_memo_hits_per_req", "count", float64(d.memoHits)/n)
	m.set("http.rejected_429", "count", float64(d.http429))
	m.set("http.req_kb", "KB", float64(d.httpSent)/1024/float64(max(d.httpReqs, 1)))
	m.set("http.resp_kb", "KB", float64(d.httpRecv)/1024/float64(max(d.httpReqs, 1)))
	m.set("cluster.coalesce_started", "count", float64(d.coalStarted))
	m.set("cluster.coalesce_hits", "count", float64(d.coalHits))
	m.set("runtime.alloc_kb_per_req", "KB", p0.allocKB/float64(p0.completed()))
	m.set("runtime.gc_per_req", "count", float64(p0.gcs)/float64(p0.completed()))
	m.set("trace.overhead_latency_p50_ms", "ms", p1.quantile(0.5)-p0.quantile(0.5))
	m.set("trace.overhead_throughput_pct", "%", 100*(p0.throughput()-p1.throughput())/p0.throughput())
	m.set("trace.spans_per_req", "count", float64(spans)/n)
}

// sampleOps reports the simulator's speed over the run's simulations: mean
// wall time per sample, and simulated operations per host second, with the
// op counts (sim.CountOps) taken afterwards, outside the timed window.
func sampleOps(col *collector, m metricSet) {
	calls, nanos := col.calls.Load(), col.nanos.Load()
	m.set("sim.ms_per_sample", "ms", float64(nanos)/1e6/float64(max(calls, 1)))
	col.mu.Lock()
	recent := append([]simCall(nil), col.recent...)
	col.mu.Unlock()
	const sampleN = 48
	var ops, ns float64
	for i := 0; i < len(recent) && i < sampleN; i++ {
		c := recent[i*len(recent)/min(len(recent), sampleN)]
		n, err := sim.CountOps(c.w, c.m, c.cores, c.scale)
		if err != nil {
			continue
		}
		ops += float64(n)
		ns += float64(c.d)
	}
	mops := 0.0
	if ns > 0 {
		mops = ops / ns * 1e3
	}
	m.set("sim.mops_per_s", "Mops/s", mops)
}

// timeBounded keeps clients going until the deadline; with whole set, a
// client finishes the schedule round it is in.
func timeBounded(b bench, deadline time.Time, whole bool) func(c, i int) bool {
	return func(c, i int) bool {
		r := b.roundOf(c, i)
		if r < 0 {
			return false
		}
		return time.Now().Before(deadline) || (whole && i > 0 && b.roundOf(c, i-1) == r)
	}
}

// roundBounded runs each client through rounds[c] whole schedule rounds.
func roundBounded(b bench, rounds []int) func(c, i int) bool {
	return func(c, i int) bool {
		r := b.roundOf(c, i)
		return r >= 0 && r < rounds[c]
	}
}
