// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5) on the simulated machines, plus the ablation-*
// experiments (`estima-bench -list` names them all). Each experiment returns
// a Result whose Text holds the same rows/series the paper reports;
// cmd/estima-bench and bench_test.go are thin wrappers around this package.
//
// Measurement collection is delegated to internal/service — the same
// facade behind the CLI and the HTTP daemon — so the experiment harness can
// never drift from the other entry points in how it measures, caches and
// replays series.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Config controls an experiment run.
type Config struct {
	// Scale shrinks the datasets (1 = paper-like runs; tests use less),
	// resolved by sim.ResolveScale: 0 means 1.
	Scale float64
	// CacheDir, when set, persists collected series in an internal/store
	// cache there, so repeated experiment and bench runs across processes
	// replay measurements instead of re-simulating them.
	CacheDir string
}

// Result is one regenerated experiment.
type Result struct {
	// ID is the experiment key ("fig5", "table4", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Text is the rendered output: the rows/series the paper reports.
	Text string
}

// runner is an experiment entry point.
type runner struct {
	id    string
	title string
	fn    func(*env) (*Result, error)
}

var runners []runner

func registerExp(id, title string, fn func(*env) (*Result, error)) {
	runners = append(runners, runner{id, title, fn})
}

// IDs returns all experiment ids in registration (paper) order.
func IDs() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.id
	}
	return out
}

// Title returns an experiment's title, or "".
func Title(id string) string {
	for _, r := range runners {
		if r.id == id {
			return r.title
		}
	}
	return ""
}

// Run executes one experiment by id. Cancelling ctx aborts measurement
// collection and every prediction worker pool the experiment opened.
func Run(ctx context.Context, id string, cfg Config) (*Result, error) {
	// Runners multiply the base scale by weak-scaling factors, so it is
	// resolved before any of them sees it.
	scale, err := sim.ResolveScale(cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	cfg.Scale = scale
	for _, r := range runners {
		if r.id == id {
			e := newEnv(ctx, cfg)
			res, err := r.fn(e)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			res.ID = r.id
			res.Title = r.title
			return res, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (known: %v)", id, IDs())
}

// env carries one experiment run's context and its service client.
// Measurement series come from an internal/service instance — memoized in
// process, persisted through the store when the config names a CacheDir —
// and predictions go through the same service's sweep planner, so runners
// that revisit a scenario (table7 repeats table4's Xeon20 column; the
// figures share the Opteron 12-core window) reuse fitted models instead of
// refitting, exactly as the CLI and the HTTP daemon do.
type env struct {
	ctx context.Context
	cfg Config
	svc *service.Service
	// collect produces one measurement; tests stub it to observe (or deny)
	// simulator invocations. Defaults to sim.Collect. It must be set before
	// the first series call.
	collect func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error)
}

func newEnv(ctx context.Context, cfg Config) *env {
	e := &env{
		ctx:     ctx,
		cfg:     cfg,
		collect: sim.Collect,
	}
	svcCfg := service.Config{
		CacheDir: cfg.CacheDir,
		// Indirect through the env so tests can swap e.collect after
		// construction.
		CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
			return e.collect(w, m, cores, scale)
		},
	}
	svc, err := service.New(svcCfg)
	if err != nil {
		// A cache that cannot be opened disables persistence but never
		// fails the run; the service's in-process memoization still applies.
		svcCfg.CacheDir = ""
		svc, _ = service.New(svcCfg)
	}
	e.svc = svc
	return e
}

// series measures workload on machine at cores 1..maxCores through the
// service (memoized; persisted when a CacheDir is configured). dataScale
// multiplies the experiment's base scale (weak-scaling runs).
func (e *env) series(workload string, m *machine.Config, maxCores int, dataScale float64) (*counters.Series, error) {
	w, err := workloads.Lookup(workload)
	if err != nil {
		return nil, err
	}
	s, _, err := e.svc.Series(e.ctx, w, m, maxCores, e.cfg.Scale*dataScale)
	return s, err
}

// predict runs one standard-scenario prediction through the service's sweep
// planner: the 1..measCores window of workload on m (measured at the
// experiment's base scale times dataScale, assembled from samples the
// service's memo or store already holds where it can) is fitted
// once per distinct (workload, machine, scale, targets, options) input and
// the finished prediction memoized, so runners revisiting a scenario reuse
// it. The service CPU gate bounds the fitting work, so runners fan rows out
// freely without oversubscribing the machine.
func (e *env) predict(workload string, m *machine.Config, measCores int, dataScale float64, targets []int, opt core.Options) (*core.Prediction, error) {
	w, err := workloads.Lookup(workload)
	if err != nil {
		return nil, err
	}
	pred, _, err := e.svc.Predicted(e.ctx, w, m, measCores, e.cfg.Scale*dataScale, targets, opt)
	return pred, err
}

// scored predicts workload on m for every core count past its 1..measCores
// window and scores the prediction against the full series (Errors). The
// full series is collected first, so the planner assembles the window from
// its samples.
func (e *env) scored(workload string, m *machine.Config, measCores int, opt core.Options) (maxPct, meanPct float64, err error) {
	full, err := e.series(workload, m, m.NumCores(), 1)
	if err != nil {
		return 0, 0, err
	}
	pred, err := e.predict(workload, m, measCores, 1, coresFrom(measCores, m.NumCores()), opt)
	if err != nil {
		return 0, 0, err
	}
	return pred.Errors(full)
}

// perName computes one row per name over one worker pool and returns the
// rows in name order, or the first failure in name order, prefixed with
// that name.
func perName[R any](names []string, row func(name string) (R, error)) ([]R, error) {
	rows := make([]R, len(names))
	errs := make([]error, len(names))
	pool.ForN(len(names), 0, func(i int) {
		rows[i], errs[i] = row(names[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return rows, nil
}

// addColumns adds one row per name to tbl, each value formatted by format,
// and returns the values column by column (one column per header after
// the first).
func addColumns(tbl *report.Table, names []string, rows [][]float64, format func(float64) string) [][]float64 {
	cols := make([][]float64, len(tbl.Headers)-1)
	for i, name := range names {
		cells := []any{name}
		for c, v := range rows[i] {
			cells = append(cells, format(v))
			cols[c] = append(cols[c], v)
		}
		tbl.AddRow(cells...)
	}
	return cols
}

// summary is one row under a table's per-name rows: a label and the
// statistic it reports of each column.
type summary struct {
	label string
	of    func([]float64) float64
}

var (
	average = summary{"Average", stats.Mean}
	stdDev  = summary{"Std. Dev.", stats.StdDev}
	maximum = summary{"Max.", stats.Max}
	minimum = summary{"Min.", stats.Min}
)

// addSummary adds the summary rows under the per-name rows, each statistic
// formatted by format.
func addSummary(tbl *report.Table, cols [][]float64, format func(float64) string, rows ...summary) {
	for _, s := range rows {
		cells := []any{s.label}
		for _, col := range cols {
			cells = append(cells, format(s.of(col)))
		}
		tbl.AddRow(cells...)
	}
}

// window returns the first maxCores samples of a series as a new series
// (the "measurements machine" view).
func window(s *counters.Series, maxCores int) *counters.Series {
	out := &counters.Series{Workload: s.Workload, Machine: s.Machine}
	for _, smp := range s.Samples {
		if smp.Cores <= maxCores {
			out.Samples = append(out.Samples, smp)
		}
	}
	return out
}

// coresFrom returns the core counts in (from, to].
func coresFrom(from, to int) []int {
	var out []int
	for c := from + 1; c <= to; c++ {
		out = append(out, c)
	}
	return out
}

// usesSoftwareStalls reports whether the paper collects software stalls for
// this workload (§5.3: all STAMP applications via the SwissTM statistics,
// plus streamcluster via the pthread wrapper). Parameterized variants
// classify by their family: `intruder?batch=4` collects software stalls
// exactly like intruder does.
func usesSoftwareStalls(workload string) bool {
	family := spec.Family(workload)
	for _, n := range workloads.STAMPNames() {
		if n == family {
			return true
		}
	}
	return family == "streamcluster" || family == "streamcluster-spin" ||
		family == "intruder-batch"
}

// sortedCats returns category names of a map in stable order.
func sortedCats(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
