package service

import (
	"context"
	"runtime"

	"repro/internal/counters"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Config configures a Service instance.
type Config struct {
	// CacheDir, when set, persists every measured sample in an
	// internal/store cache there, so repeated requests across processes
	// replay measurements instead of re-simulating.
	CacheDir string
	// Workers bounds concurrent simulations service-wide and is the default
	// worker count of each prediction's fitting/bootstrap pools. 0 means
	// NumCPU.
	Workers int
	// CollectSample overrides the per-sample measurement collector; tests
	// stub it. nil means sim.Collect.
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

	// memo shares in-flight simulations and keeps completed samples for
	// repeat requests; persistence is the store's job, so it is bounded.
	memo *flight.Group[store.SampleKey, memoSample]
	// fits is the sweep planner's fitted-model memo; see planner.go.
	fits *flight.Group[string, fitResult]
	// fitHook, when set (by tests, before first use), observes every fit
	// computation as it starts.
	fitHook func(artifactKey string)
}

// memoSample is one sample memo value: the sample, and whether it was
// replayed from the store rather than simulated.
type memoSample struct {
	sample counters.Sample
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
		memo: flight.New[store.SampleKey, memoSample](memoLimit),
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

// seriesKey is the store key of the contiguous 1..maxCores window, the
// measurement identity behind the planner's fit memo.
//
//estima:canonical workload mach
func seriesKey(workload, mach string, maxCores int, scale float64) store.Key {
	return store.Key{Workload: workload, Machine: mach, MaxCores: maxCores,
		Scale: scale, Engine: sim.EngineVersion}
}

// memoLimit bounds the sample memo (entries): as many samples as 256
// series of the largest preset machine (48 cores). The memo exists to
// share in-flight simulations and give repeat requests a fast path;
// long-term persistence is the disk store's job, so a long-running daemon
// must not grow without bound as clients vary the (workload, machine,
// scale) input. Least recently used samples go first.
const memoLimit = 256 * 48

// series measures workload on machine at each core count of the schedule
// (distinct counts, any order) at the given effective scale and returns
// the samples as a series ordered by core count. Each sample is memoized
// in process (concurrent requests share one simulation) and persisted
// through the store when one is configured, so only core counts neither
// holds are simulated. hit reports that every sample was replayed from the
// store. Cancelling ctx detaches this caller; a shared simulation is
// cancelled only once no caller is left waiting on it, so one client's
// disconnect never fails another's request.
func (s *Service) series(ctx context.Context, w sim.Workload, m *machine.Config, cores []int, scale float64) (*counters.Series, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	name := w.Name()
	vals := make([]memoSample, len(cores))
	errs := make([]error, len(cores))
	keys := make([]store.SampleKey, len(cores))
	var missing []int
	for i, c := range cores {
		keys[i] = store.SampleKey{Workload: name, Machine: m.Name, Scale: scale, Engine: sim.EngineVersion, Cores: c}
		var ok bool
		if vals[i], ok = s.memo.Get(keys[i]); !ok {
			missing = append(missing, i)
		}
	}
	pool.ForN(len(missing), s.cfg.Workers, func(j int) {
		i := missing[j]
		vals[i], errs[i] = s.memo.Do(ctx, keys[i], func(ctx context.Context) (memoSample, error) {
			return s.measure(ctx, keys[i], w, m)
		})
	})
	ser := &counters.Series{Workload: name, Machine: m.Name, Scale: scale,
		Samples: make([]counters.Sample, len(cores))}
	hit := true
	for i, v := range vals {
		if errs[i] != nil {
			return nil, false, errs[i]
		}
		ser.Samples[i], hit = v.sample, hit && v.hit
	}
	ser.Sort()
	return ser, hit, nil
}

// measure produces one sample memo value: replayed from the store, else
// simulated under the service-wide semaphore and stored.
func (s *Service) measure(ctx context.Context, k store.SampleKey, w sim.Workload, m *machine.Config) (memoSample, error) {
	if smp, ok := s.store.GetSample(ctx, k); ok {
		return memoSample{smp, true}, nil
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return memoSample{}, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		<-s.sem
		return memoSample{}, err
	}
	smp, err := s.cfg.CollectSample(w, m, k.Cores, k.Scale)
	<-s.sem
	if err != nil {
		return memoSample{}, err
	}
	s.store.PutSample(k, smp) // best-effort; a bad cache dir must not fail runs
	return memoSample{sample: smp}, nil
}

// Series is the in-process fast path behind Collect: measure (or replay
// from the store) the contiguous 1..maxCores schedule of one workload at
// the given scale (resolved as every request's is, see checkScale),
// sharing the service's memoization, store and simulation semaphore. The
// experiment harness and other library callers use it to skip the JSON
// round trip of a CollectRequest.
func (s *Service) Series(ctx context.Context, w sim.Workload, m *machine.Config, maxCores int, scale float64) (*counters.Series, bool, error) {
	scale, err := checkScale(scale)
	if err != nil {
		return nil, false, err
	}
	return s.series(ctx, w, m, sim.CoreRange(maxCores), scale)
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
// series over any core schedule.
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
	scale, err := checkScale(req.Scale)
	if err != nil {
		return nil, err
	}
	ser, hit, err := s.series(ctx, w, m, cores, scale)
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

// Curve answers a CurveRequest: Collect without the cache fields.
func (s *Service) Curve(ctx context.Context, req CurveRequest) (*CurveResponse, error) {
	c, err := s.Collect(ctx, CollectRequest(req))
	if err != nil {
		return nil, err
	}
	return &CurveResponse{APIVersion: c.APIVersion, Workload: c.Workload, Machine: c.Machine,
		Samples: c.Samples, Series: c.Series, Decoded: c.Decoded}, nil
}

// checkScale resolves a request's dataset scale by the simulator's own
// rule (sim.ResolveScale): the scale every sample key, seed and response
// then carries. A non-finite scale is the caller's fault. JSON cannot
// carry one, but in-process callers (the CLI, sweeps, explore, the
// experiment harness) can.
func checkScale(scale float64) (float64, error) {
	scale, err := sim.ResolveScale(scale)
	if err != nil {
		return 0, &BadRequestError{Err: err}
	}
	return scale, nil
}
