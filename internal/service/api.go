// Package service is the single versioned facade behind every ESTIMA entry
// point. The CLI (cmd/estima), the HTTP daemon (estima serve), the
// experiment harness (internal/experiments) and library callers all speak
// the same typed, JSON-serializable requests and responses, validated
// centrally and executed through one code path that composes workloads →
// sim/store measurement cache → core.Pipeline → results. Entry points can
// therefore never drift: a new scenario is added once, here.
package service

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/counters"
	"repro/internal/sched"
)

// APIVersion is the current request/response schema version. Requests carry
// it explicitly; an empty version means "current". Unknown versions are
// rejected so stale clients fail loudly instead of being misread.
const APIVersion = "v1"

// BadRequestError marks an error as the caller's fault (failed validation,
// unknown workload or machine, malformed input). The HTTP layer maps it to
// 400; everything else is a 500.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// badRequest wraps a formatted error as a BadRequestError.
func badRequest(format string, args ...any) error {
	return &BadRequestError{Err: fmt.Errorf(format, args...)}
}

// IsBadRequest reports whether err (or anything it wraps) is the caller's
// fault.
func IsBadRequest(err error) bool {
	var bre *BadRequestError
	return errors.As(err, &bre)
}

// checkVersion validates a request's APIVersion ("" means current).
func checkVersion(v string) error {
	if v != "" && v != APIVersion {
		return badRequest("unsupported api version %q (this server speaks %q)", v, APIVersion)
	}
	return nil
}

// PredictRequest asks for one full ESTIMA prediction: measure the workload
// at low core counts (or replay a previously collected series), extrapolate
// to the target machine, and optionally compare against the target's actual
// behaviour.
type PredictRequest struct {
	// APIVersion is the request schema version; "" means current.
	APIVersion string `json:"api_version,omitempty"`
	// Workload and Machine name the benchmark and the measurement machine.
	// Both are ignored when Series replays a previously collected run.
	Workload string `json:"workload,omitempty"`
	Machine  string `json:"machine,omitempty"`
	// MeasCores is the top of the measured 1..N window; 0 means one
	// processor of the measurement machine.
	MeasCores int `json:"meas_cores,omitempty"`
	// Target is the machine predicted for; "" means the measurement machine.
	Target string `json:"target,omitempty"`
	// Scale is the dataset scale of the measurement runs; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// DataScale is the weak-scaling dataset factor for the target (§4.5).
	DataScale float64 `json:"data_scale,omitempty"`
	// Soft includes software stall categories (§5.3).
	Soft bool `json:"soft,omitempty"`
	// Checkpoints is the approximation procedure's c (0 = default 2).
	Checkpoints int `json:"checkpoints,omitempty"`
	// Bootstrap enables residual-bootstrap confidence bands (0 = off);
	// CILevel is their two-sided confidence level in percent (0 = 90).
	Bootstrap int     `json:"bootstrap,omitempty"`
	CILevel   float64 `json:"ci_level,omitempty"`
	// Compare also measures the target machine and reports errors — the
	// expensive step ESTIMA exists to avoid; useful for evaluation.
	Compare bool `json:"compare,omitempty"`
	// Series, when set, replays a previously collected measurement series
	// (the versioned counters.EncodeSeries document, e.g. 'collect -o'
	// output) instead of simulating Workload on Machine.
	Series json.RawMessage `json:"series,omitempty"`
}

// PredictResponse is one finished prediction plus everything a client needs
// to render or evaluate it.
type PredictResponse struct {
	APIVersion string `json:"api_version"`
	// Workload, Machine and Target are the resolved names. MeasCores is the
	// resolved measurement window (0 when a replayed series supplied the
	// samples); Samples counts the measurement samples used.
	Workload  string `json:"workload"`
	Machine   string `json:"machine"`
	Target    string `json:"target"`
	MeasCores int    `json:"meas_cores,omitempty"`
	Samples   int    `json:"samples"`
	// Scale is the effective dataset scale of the measurements;
	// ScaleRecorded reports whether a replayed series carried its own.
	Scale         float64 `json:"scale,omitempty"`
	ScaleRecorded bool    `json:"scale_recorded"`
	// WorkloadKnown / MachineKnown report whether the (possibly replayed)
	// series names a registered workload and machine preset. An unknown
	// machine disables frequency scaling; an unknown workload disables
	// comparison.
	WorkloadKnown bool `json:"workload_known"`
	MachineKnown  bool `json:"machine_known"`
	// CacheHit reports that every sample of the measurement series was
	// replayed from the store rooted at StoreDir instead of simulated.
	CacheHit bool   `json:"cache_hit,omitempty"`
	StoreDir string `json:"store_dir,omitempty"`
	// CategoryFits maps each stall category to its selected extrapolation
	// function; FactorFit is the scaling-factor function.
	CategoryFits map[string]string `json:"category_fits"`
	FactorFit    string            `json:"factor_fit"`
	// Stability, FactorStability, Bootstraps and CILevel describe the
	// bootstrap stage (absent without PredictRequest.Bootstrap).
	Stability       map[string]float64 `json:"stability,omitempty"`
	FactorStability float64            `json:"factor_stability,omitempty"`
	Bootstraps      int                `json:"bootstraps,omitempty"`
	CILevel         float64            `json:"ci_level,omitempty"`
	// ScalingStop is the predicted core count past which adding cores no
	// longer helps.
	ScalingStop int `json:"scaling_stop"`
	// TargetCores, Time and (with bootstrapping) TimeLo/TimeHi are the
	// prediction: execution time in seconds per target core count.
	TargetCores []int     `json:"target_cores"`
	Time        []float64 `json:"time_s"`
	TimeLo      []float64 `json:"time_lo_s,omitempty"`
	TimeHi      []float64 `json:"time_hi_s,omitempty"`
	// Compared reports whether the target machine was actually measured;
	// Actual and ErrorPct then hold the measured times and the absolute
	// percentage error of each prediction.
	Compared bool      `json:"compared"`
	Actual   []float64 `json:"actual_s,omitempty"`
	ErrorPct []float64 `json:"error_pct,omitempty"`
}

// SweepRequest asks for the workload × machine prediction matrix: measure
// each pair on one processor, extrapolate to the full machine.
type SweepRequest struct {
	APIVersion string `json:"api_version,omitempty"`
	// Workloads and Machines select the matrix; empty means the paper's
	// Table 4 workload set and all machine presets.
	Workloads []string `json:"workloads,omitempty"`
	Machines  []string `json:"machines,omitempty"`
	// MeasCores overrides the per-machine one-processor window (0 = auto).
	MeasCores int `json:"meas_cores,omitempty"`
	// Scale is the dataset scale factor; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// Soft includes software stall categories.
	Soft bool `json:"soft,omitempty"`
	// Workers bounds the job-level worker pool at or below the service's
	// Workers; 0 means the service's.
	Workers int `json:"workers,omitempty"`
	// Bootstrap / CILevel enable confidence bands per cell; Seed picks the
	// deterministic bootstrap resampling stream (0 means the default seed).
	Bootstrap int     `json:"bootstrap,omitempty"`
	CILevel   float64 `json:"ci_level,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// SweepCell is one finished cell of the matrix: the prediction summary or
// the error that stopped it (per-cell, so one pathological pair never sinks
// the rest).
type SweepCell struct {
	Workload    string  `json:"workload"`
	Machine     string  `json:"machine"`
	MeasCores   int     `json:"meas_cores"`
	TargetCores int     `json:"target_cores"`
	Stop        int     `json:"stop,omitempty"`
	TimeFull    float64 `json:"time_full_s,omitempty"`
	TimeLo      float64 `json:"time_lo_s,omitempty"`
	TimeHi      float64 `json:"time_hi_s,omitempty"`
	CacheHit    bool    `json:"cache_hit"`
	Error       string  `json:"error,omitempty"`
}

// SweepResponse is the full matrix in deterministic workload × machine
// order.
type SweepResponse struct {
	APIVersion string      `json:"api_version"`
	Workloads  []string    `json:"workloads"`
	Machines   []string    `json:"machines"`
	Cells      []SweepCell `json:"cells"`
	Failures   int         `json:"failures"`
}

// SweepSummary is the final record of a streaming sweep: the matrix shape,
// the failure count, and the planner's decomposition — how many distinct
// collect and fit steps the deduplicated plan actually contained (cells
// beyond those counts shared a step with an earlier cell).
type SweepSummary struct {
	APIVersion string   `json:"api_version"`
	Workloads  []string `json:"workloads"`
	Machines   []string `json:"machines"`
	Cells      int      `json:"cells"`
	Failures   int      `json:"failures"`
	// DistinctSeries counts the deduplicated collection steps of the plan;
	// DistinctFits the deduplicated fit+predict steps.
	DistinctSeries int `json:"distinct_series"`
	DistinctFits   int `json:"distinct_fits"`
}

// SweepStreamLine is one NDJSON record of a streaming sweep
// (POST /v1/sweep?stream=ndjson, or `estima sweep -format ndjson`): exactly
// one of Cell (per finished cell, in deterministic plan order), Summary
// (the final record) or Error (a failure after streaming began) is set.
type SweepStreamLine struct {
	Cell    *SweepCell    `json:"cell,omitempty"`
	Summary *SweepSummary `json:"summary,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// CollectRequest asks for one measurement series: the workload on the
// machine over the given core schedule.
type CollectRequest struct {
	APIVersion string `json:"api_version,omitempty"`
	Workload   string `json:"workload"`
	Machine    string `json:"machine"`
	// Cores is the schedule spec: "all" or "" (1..NumCores), "1-12", or
	// "1,2,4,8", listing each core count at most once. Any schedule is
	// assembled from per-sample store entries.
	Cores string `json:"cores,omitempty"`
	// Scale is the dataset scale; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
}

// CollectResponse carries the collected series as the versioned JSON
// document (counters.EncodeSeries bytes). In-process clients use Decoded.
type CollectResponse struct {
	APIVersion string          `json:"api_version"`
	Workload   string          `json:"workload"`
	Machine    string          `json:"machine"`
	Samples    int             `json:"samples"`
	CacheHit   bool            `json:"cache_hit"`
	StoreDir   string          `json:"store_dir,omitempty"`
	Series     json.RawMessage `json:"series"`

	// Decoded is the in-memory form of Series, populated for in-process
	// clients; HTTP clients decode Series themselves.
	Decoded *counters.Series `json:"-"`
}

// CurveRequest asks for the raw measured time and stall curves of a
// workload (no extrapolation) — a CollectRequest under another name,
// mirroring 'estima curve'.
type CurveRequest struct {
	APIVersion string  `json:"api_version,omitempty"`
	Workload   string  `json:"workload"`
	Machine    string  `json:"machine"`
	Cores      string  `json:"cores,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
}

// CurveResponse is CollectResponse without the cache fields.
type CurveResponse struct {
	APIVersion string          `json:"api_version"`
	Workload   string          `json:"workload"`
	Machine    string          `json:"machine"`
	Samples    int             `json:"samples"`
	Series     json.RawMessage `json:"series"`

	Decoded *counters.Series `json:"-"`
}

// CellRequest asks for exactly one sweep cell: workload × machine, measured
// over the machine's one-processor window (or MeasCores) and extrapolated to
// its full core count. It is the unit the cluster coordinator routes to
// workers — a sweep fans out as one CellRequest per planned cell — but the
// endpoint is ordinary API surface any client may use.
type CellRequest struct {
	APIVersion string `json:"api_version,omitempty"`
	// Workload and Machine name the scenario; the coordinator always sends
	// canonical spec names so every tier agrees on cache identity.
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// MeasCores overrides the one-processor measurement window (0 = auto).
	MeasCores int `json:"meas_cores,omitempty"`
	// Scale is the dataset scale; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// Soft / Bootstrap / CILevel / Seed mirror the SweepRequest options.
	Soft      bool    `json:"soft,omitempty"`
	Bootstrap int     `json:"bootstrap,omitempty"`
	CILevel   float64 `json:"ci_level,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// CellResponse is the finished cell. Execution failures land in
// Cell.Error (exactly as they would inside a sweep), never in the HTTP
// status: the coordinator must be able to merge them into a stream.
type CellResponse struct {
	APIVersion string    `json:"api_version"`
	Cell       SweepCell `json:"cell"`
}

// ReadyResponse is the GET /readyz body: what this process is (Mode:
// "single", "worker" or "coordinator"), what it owns, and how loaded its
// admission gate is. A coordinator additionally aggregates its workers'
// readiness and its coalescing counters.
type ReadyResponse struct {
	APIVersion string `json:"api_version"`
	Status     string `json:"status"`
	Mode       string `json:"mode"`
	// StoreDir is the measurement store this process owns ("" when purely
	// in-memory) — on a worker, its shard.
	StoreDir string `json:"store_dir,omitempty"`
	// Capacity and Queue are the admission gate: the in-flight bound and the
	// per-endpoint depth gauges in registration order.
	Capacity int             `json:"capacity"`
	Queue    []EndpointDepth `json:"queue"`
	// Workers is the coordinator's aggregate: one entry per configured
	// worker, in configuration order.
	Workers []WorkerReady `json:"workers,omitempty"`
	// Coalesce is the coordinator's cross-request coalescing counters, one
	// per shared-flight class.
	Coalesce []CoalesceStat `json:"coalesce,omitempty"`
}

// WorkerReady is one worker's slot in the coordinator's /readyz aggregate.
type WorkerReady struct {
	Addr string `json:"addr"`
	// Healthy is the probe verdict the router currently acts on; Share is
	// the fraction of the hash ring this worker owns first-choice.
	Healthy bool    `json:"healthy"`
	Share   float64 `json:"share"`
	// Ready is the worker's own /readyz body (nil when unreachable; Error
	// then says why).
	Ready *ReadyResponse `json:"ready,omitempty"`
	Error string         `json:"error,omitempty"`
}

// CoalesceStat counts cross-request coalescing for one flight class:
// Started flights actually executed, Hits answered without one, by joining
// a flight already in progress for another client or, for a class the
// coordinator memoizes (cells), from a retained value.
type CoalesceStat struct {
	Endpoint string `json:"endpoint"`
	Started  int64  `json:"started"`
	Hits     int64  `json:"hits"`
}

// ListRequest asks for the registered workloads and machine presets.
// Verbose additionally returns every family's parameter schema — the keys,
// types, bounds and defaults the spec grammar (`name?key=val,...`) accepts.
type ListRequest struct {
	APIVersion string `json:"api_version,omitempty"`
	Verbose    bool   `json:"verbose,omitempty"`
}

// ParamInfo describes one spec parameter of a workload family or machine
// preset. Default, Min and Max are rendered in the parameter's canonical
// formatting — the exact strings a spec may use.
type ParamInfo struct {
	Key     string `json:"key"`
	Type    string `json:"type"`
	Default string `json:"default"`
	Min     string `json:"min"`
	Max     string `json:"max"`
	Help    string `json:"help,omitempty"`
}

// FamilyInfo is one workload family or machine preset plus its parameter
// schema (empty for fixed workloads).
type FamilyInfo struct {
	Name   string      `json:"name"`
	Params []ParamInfo `json:"params,omitempty"`
}

// MachineInfo summarizes one machine preset for clients.
type MachineInfo struct {
	Name           string  `json:"name"`
	Cores          int     `json:"cores"`
	Sockets        int     `json:"sockets"`
	ChipsPerSocket int     `json:"chips_per_socket"`
	CoresPerChip   int     `json:"cores_per_chip"`
	FreqGHz        float64 `json:"freq_ghz"`
	Arch           string  `json:"arch"`
}

// ListResponse names everything the service can measure and predict for.
// The family fields carry the parameter schemas and are only populated for
// Verbose requests, so non-verbose responses stay byte-identical to the
// pre-spec API.
type ListResponse struct {
	APIVersion       string        `json:"api_version"`
	Workloads        []string      `json:"workloads"`
	Machines         []MachineInfo `json:"machines"`
	WorkloadFamilies []FamilyInfo  `json:"workload_families,omitempty"`
	MachineFamilies  []FamilyInfo  `json:"machine_families,omitempty"`
}

// WorkloadsResponse is the GET /v1/workloads projection of ListResponse;
// Families is only populated with ?schemas=1.
type WorkloadsResponse struct {
	APIVersion string       `json:"api_version"`
	Workloads  []string     `json:"workloads"`
	Families   []FamilyInfo `json:"families,omitempty"`
}

// MachinesResponse is the GET /v1/machines projection of ListResponse;
// Families is only populated with ?schemas=1.
type MachinesResponse struct {
	APIVersion string        `json:"api_version"`
	Machines   []MachineInfo `json:"machines"`
	Families   []FamilyInfo  `json:"families,omitempty"`
}

// parseCores parses "1,2,4" / "1-12" / "all" core schedule specs against a
// machine's core count through the shared internal/sched grammar (the CLI
// syntax-checks the same grammar up front). Counts beyond the machine are
// rejected here — central validation, and a hostile "1-2000000000" range
// must not balloon server memory before anything else looks at it.
func parseCores(spec string, max int) ([]int, error) {
	cores, err := sched.Expand(spec, max)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return cores, nil
}
