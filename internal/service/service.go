package service

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/counters"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Config configures a Service instance.
type Config struct {
	// CacheDir, when set, persists every contiguous-schedule measurement
	// series in an internal/store cache there, so repeated requests across
	// processes replay measurements instead of re-simulating.
	CacheDir string
	// Workers bounds concurrent simulations service-wide and is the default
	// worker count of each prediction's fitting/bootstrap pools. 0 means
	// NumCPU.
	Workers int
	// CollectSample overrides the per-sample measurement collector (tests
	// stub it; a future perf-based backend plugs in here). nil means
	// sim.Collect.
	CollectSample func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error)
}

// Service executes every versioned API request through one code path:
// resolve names → measure (memoized in process, persisted via the store) →
// predict (core.Pipeline) → respond. A Service is safe for concurrent use;
// one simulation semaphore bounds total measurement CPU across all
// in-flight requests.
type Service struct {
	cfg   Config
	store *store.Store
	sem   chan struct{}

	// memo shares in-flight collections and keeps completed series for
	// repeat requests; persistence is the store's job, so it is bounded.
	memo *flight.Group[store.Key, memoSeries]
	// fits is the sweep planner's fitted-model memo; see planner.go.
	fits *flight.Group[string, fitResult]
	// fitHook, when set (by tests, before first use), observes every fit
	// computation as it starts.
	fitHook func(artifactKey string)
}

// memoSeries is one series memo value: the series, and whether it was
// replayed (from the store or a longer memoized series) rather than
// simulated.
type memoSeries struct {
	series *counters.Series
	hit    bool
}

// New builds a Service. A CacheDir that cannot be created or opened is an
// error: a caller that asked for persistence should not silently lose it.
func New(cfg Config) (*Service, error) {
	if cfg.Workers < 0 {
		return nil, badRequest("service: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.CollectSample == nil {
		cfg.CollectSample = sim.Collect
	}
	s := &Service{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.Workers),
		memo: flight.New[store.Key, memoSeries](memoLimit),
		fits: flight.New[string, fitResult](DefaultFitCacheSize),
	}
	if cfg.CacheDir != "" {
		st, err := store.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	return s, nil
}

// StoreDir returns the measurement store directory ("" without one).
func (s *Service) StoreDir() string {
	return s.store.Dir()
}

// resolve turns workload and machine names into registered instances,
// attaching did-you-mean suggestions to failures.
func resolve(workload, mach string) (sim.Workload, *machine.Config, error) {
	w, err := workloads.Lookup(workload)
	if err != nil {
		return nil, nil, &BadRequestError{Err: err}
	}
	m, err := machine.Lookup(mach)
	if err != nil {
		return nil, nil, &BadRequestError{Err: err}
	}
	return w, m, nil
}

// seriesKey is the store (and memo) key of a contiguous 1..maxCores series.
//
//estima:canonical workload mach
func seriesKey(workload, mach string, maxCores int, scale float64) store.Key {
	return store.Key{Workload: workload, Machine: mach, MaxCores: maxCores,
		Scale: scale, Engine: sim.EngineVersion}
}

// series measures workload on machine over the contiguous 1..maxCores
// schedule at the given effective scale: memoized in process (concurrent
// requests share one simulation), persisted through the store when one is
// configured. hit reports a replay rather than a simulation. Cancelling ctx
// detaches this caller; the shared collection itself is cancelled only once
// no caller is left waiting on it, so one client's disconnect never fails
// another's request.
func (s *Service) series(ctx context.Context, w sim.Workload, m *machine.Config, maxCores int, scale float64) (*counters.Series, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	key := seriesKey(w.Name(), m.Name, maxCores, scale)
	if v, ok := s.memo.Get(key); ok {
		return v.series, v.hit, nil
	}
	v, err := s.memo.Do(ctx, key, func(ctx context.Context) (memoSeries, error) {
		return s.measure(ctx, key, w, m, scale)
	})
	return v.series, v.hit, err
}

// measure produces the series memo value for key: windowed from a longer
// memoized or stored series of the same input when one exists, else
// simulated and stored.
func (s *Service) measure(ctx context.Context, key store.Key, w sim.Workload, m *machine.Config, scale float64) (memoSeries, error) {
	// Every sample is collected independently, so the 1..K prefix of a
	// 1..N series (N > K) is byte-identical to collecting 1..K afresh. A
	// series windowed from the memo inherits its parent's hit flag, exactly
	// what a caller joining the parent would have seen.
	if win, hit := s.memoPrefix(key, m.NumCores()); win != nil {
		go s.store.Put(key, win) // best-effort, off the waiters' path
		return memoSeries{win, hit}, nil
	}
	if cached, ok := s.store.Get(ctx, key); ok {
		return memoSeries{cached, true}, nil
	}
	if parent, ok := s.store.FindPrefix(ctx, key); ok {
		if win := windowSeries(parent, key.MaxCores); win != nil {
			s.store.Put(key, win)
			return memoSeries{win, true}, nil
		}
	}
	ser, err := s.collect(ctx, w, m, sim.CoreRange(key.MaxCores), scale)
	if err == nil {
		s.store.Put(key, ser) // best-effort; a bad cache dir must not fail runs
	}
	return memoSeries{series: ser}, err
}

// memoPrefix windows key's schedule out of the shortest memoized series of
// the same input that is longer than it, reporting that series' hit flag;
// nil when there is none, or when it cannot actually be windowed (a
// corrupted store file can load fewer samples than its key claims). No
// series is longer than its machine, so the search stops at maxCores.
func (s *Service) memoPrefix(key store.Key, maxCores int) (*counters.Series, bool) {
	for k := key; k.MaxCores < maxCores; {
		k.MaxCores++
		if v, ok := s.memo.Get(k); ok {
			return windowSeries(v.series, key.MaxCores), v.hit
		}
	}
	return nil, false
}

// windowSeries returns the 1..maxCores prefix of a longer series as a new
// series, or nil when the parent does not actually start with that
// contiguous schedule (a corrupted store entry must fall back to
// collection). Samples are shared, never copied: series are immutable.
func windowSeries(parent *counters.Series, maxCores int) *counters.Series {
	if parent == nil || len(parent.Samples) < maxCores {
		return nil
	}
	for i := 0; i < maxCores; i++ {
		if parent.Samples[i].Cores != i+1 {
			return nil
		}
	}
	return &counters.Series{
		Workload: parent.Workload,
		Machine:  parent.Machine,
		Scale:    parent.Scale,
		Samples:  parent.Samples[:maxCores:maxCores],
	}
}

// memoLimit bounds the series memo (entries). The memo exists to share
// in-flight collections and give repeat requests a pointer-stable fast
// path; long-term persistence is the disk store's job, so a long-running
// daemon must not grow without bound as clients vary the (workload,
// machine, cores, scale) tuple. Least recently used series go first.
const memoLimit = 256

// collect runs one measurement per core count across the service-wide
// simulation semaphore. Samples land at their schedule index, so the
// resulting series is deterministic for any concurrency.
func (s *Service) collect(ctx context.Context, w sim.Workload, m *machine.Config, cores []int, scale float64) (*counters.Series, error) {
	samples := make([]counters.Sample, len(cores))
	errs := make([]error, len(cores))
	var wg sync.WaitGroup
	for i, c := range cores {
		wg.Add(1)
		go func(i, c int) {
			defer wg.Done()
			select {
			case s.sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-s.sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			samples[i], errs[i] = s.cfg.CollectSample(w, m, c, scale)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ser := &counters.Series{Workload: w.Name(), Machine: m.Name, Scale: scale,
		Samples: samples}
	ser.Sort()
	return ser, nil
}

// Series is the in-process fast path behind Collect: measure (or replay
// from the store) the contiguous 1..maxCores schedule of one workload at
// the given effective scale, sharing the service's memoization, store and
// simulation semaphore. The experiment harness and other library callers
// use it to skip the JSON round trip of a CollectRequest.
func (s *Service) Series(ctx context.Context, w sim.Workload, m *machine.Config, maxCores int, scale float64) (*counters.Series, bool, error) {
	return s.series(ctx, w, m, maxCores, scale)
}

// List answers a ListRequest: every registered workload and machine preset.
func (s *Service) List(ctx context.Context, req ListRequest) (*ListResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := &ListResponse{APIVersion: APIVersion, Workloads: workloads.Names()}
	for _, m := range machine.Presets() {
		resp.Machines = append(resp.Machines, MachineInfo{
			Name:           m.Name,
			Cores:          m.NumCores(),
			Sockets:        m.Sockets,
			ChipsPerSocket: m.ChipsPerSocket,
			CoresPerChip:   m.CoresPerChip,
			FreqGHz:        m.FreqGHz,
			Arch:           string(m.Arch),
		})
	}
	if req.Verbose {
		resp.WorkloadFamilies = workloadFamilies()
		resp.MachineFamilies = machineFamilies()
	}
	return resp, nil
}

// paramInfos renders a schema's parameters for clients, values in their
// canonical spec formatting.
func paramInfos(params []spec.Param) []ParamInfo {
	out := make([]ParamInfo, len(params))
	for i, p := range params {
		out[i] = ParamInfo{
			Key:     p.Key,
			Type:    p.Kind.String(),
			Default: p.Format(p.Default),
			Min:     p.Format(p.Min),
			Max:     p.Format(p.Max),
			Help:    p.Help,
		}
	}
	return out
}

// workloadFamilies lists every workload family's parameter schema.
func workloadFamilies() []FamilyInfo {
	var out []FamilyInfo
	for _, f := range workloads.Families() {
		out = append(out, FamilyInfo{Name: f.Name, Params: paramInfos(f.Params)})
	}
	return out
}

// machineFamilies lists every machine preset's override schema.
func machineFamilies() []FamilyInfo {
	var out []FamilyInfo
	for _, m := range machine.Presets() {
		out = append(out, FamilyInfo{Name: m.Name, Params: paramInfos(machine.Schema(m).Params)})
	}
	return out
}

// Collect answers a CollectRequest: measure (or replay from the store) one
// series. Contiguous 1..N schedules go through the store and memo; sparse
// schedules are collected directly, as the store is not keyed by them.
func (s *Service) Collect(ctx context.Context, req CollectRequest) (*CollectResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	w, m, err := resolve(req.Workload, req.Machine)
	if err != nil {
		return nil, err
	}
	cores, err := parseCores(req.Cores, m.NumCores())
	if err != nil {
		return nil, err
	}
	scale := defaultScale(req.Scale)
	var (
		ser *counters.Series
		hit bool
	)
	if sched.ContiguousFromOne(cores) {
		ser, hit, err = s.series(ctx, w, m, len(cores), scale)
	} else {
		ser, err = s.collect(ctx, w, m, cores, scale)
	}
	if err != nil {
		return nil, err
	}
	doc, err := counters.EncodeSeries(ser)
	if err != nil {
		return nil, err
	}
	return &CollectResponse{
		APIVersion: APIVersion,
		Workload:   ser.Workload,
		Machine:    ser.Machine,
		Samples:    len(ser.Samples),
		CacheHit:   hit,
		StoreDir:   s.store.Dir(),
		Series:     doc,
		Decoded:    ser,
	}, nil
}

// Curve answers a CurveRequest: the raw measured curves, never persisted.
func (s *Service) Curve(ctx context.Context, req CurveRequest) (*CurveResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	w, m, err := resolve(req.Workload, req.Machine)
	if err != nil {
		return nil, err
	}
	cores, err := parseCores(req.Cores, m.NumCores())
	if err != nil {
		return nil, err
	}
	ser, err := s.collect(ctx, w, m, cores, defaultScale(req.Scale))
	if err != nil {
		return nil, err
	}
	doc, err := counters.EncodeSeries(ser)
	if err != nil {
		return nil, err
	}
	return &CurveResponse{
		APIVersion: APIVersion,
		Workload:   ser.Workload,
		Machine:    ser.Machine,
		Samples:    len(ser.Samples),
		Series:     doc,
		Decoded:    ser,
	}, nil
}

// defaultScale maps the zero value to the paper's full-size datasets.
func defaultScale(scale float64) float64 {
	if scale <= 0 {
		return 1
	}
	return scale
}
