package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// ServerConfig configures the HTTP front end.
type ServerConfig struct {
	// MaxInFlight bounds concurrently executing /v1/* requests. 0 means
	// 2×NumCPU. /healthz and /readyz are never limited, so liveness and
	// readiness probes stay responsive under load.
	MaxInFlight int
	// MaxQueue bounds arrivals waiting for an in-flight slot. A saturated
	// server with a full queue answers 429 with a Retry-After header instead
	// of letting requests pile up until their contexts die. 0 means
	// 4×MaxInFlight; negative disables queueing entirely (every arrival
	// beyond MaxInFlight is rejected immediately).
	MaxQueue int
	// Mode labels this process in /readyz: "single" (the default),
	// "worker" (a shard owner behind a coordinator), or "coordinator".
	Mode string
}

// EndpointDepth is one endpoint's admission gauge snapshot: requests
// currently executing, requests queued for a slot, and the lifetime count of
// requests rejected with 429.
type EndpointDepth struct {
	Endpoint string `json:"endpoint"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	Rejected int64  `json:"rejected"`
}

// endpointGauge is the live counter set behind one EndpointDepth.
type endpointGauge struct {
	inFlight atomic.Int64
	queued   atomic.Int64
	rejected atomic.Int64
}

// gate is the admission controller in front of every /v1/* endpoint: a
// semaphore bounding in-flight requests plus a bounded wait queue. Arrivals
// beyond both bounds are answered 429 with Retry-After instead of blocking,
// so a saturated server degrades into fast, explicit rejections rather than
// a pile of hanging connections. Per-endpoint gauges feed /readyz. Every
// tier builds its gate here, so single-process, worker and coordinator
// admission behaviour cannot drift.
type gate struct {
	slots    chan struct{}
	queueCap int64
	inFlight atomic.Int64
	queued   atomic.Int64

	mu     sync.Mutex
	order  []string
	gauges map[string]*endpointGauge
}

// newGate builds a gate from the ServerConfig bounds (see ServerConfig for
// the zero-value defaults).
func newGate(maxInFlight, maxQueue int) *gate {
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.NumCPU()
	}
	switch {
	case maxQueue == 0:
		maxQueue = 4 * maxInFlight
	case maxQueue < 0:
		maxQueue = 0
	}
	return &gate{
		slots:    make(chan struct{}, maxInFlight),
		queueCap: int64(maxQueue),
		gauges:   map[string]*endpointGauge{},
	}
}

// Capacity returns the in-flight bound.
func (g *gate) Capacity() int { return cap(g.slots) }

// InFlight returns the number of requests currently executing.
func (g *gate) InFlight() int64 { return g.inFlight.Load() }

// Queued returns the number of requests currently waiting for a slot.
func (g *gate) Queued() int64 { return g.queued.Load() }

// register returns (creating if needed) the gauge for one endpoint label.
// Endpoints are registered at handler-construction time, so the set is fixed
// before any request arrives.
func (g *gate) register(endpoint string) *endpointGauge {
	g.mu.Lock()
	defer g.mu.Unlock()
	if eg, ok := g.gauges[endpoint]; ok {
		return eg
	}
	eg := &endpointGauge{}
	g.gauges[endpoint] = eg
	g.order = append(g.order, endpoint)
	return eg
}

// Depths snapshots every endpoint's admission gauges in registration order,
// so /readyz bodies are deterministic.
func (g *gate) Depths() []EndpointDepth {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]EndpointDepth, 0, len(g.order))
	for _, name := range g.order {
		eg := g.gauges[name]
		out = append(out, EndpointDepth{
			Endpoint: name,
			InFlight: eg.inFlight.Load(),
			Queued:   eg.queued.Load(),
			Rejected: eg.rejected.Load(),
		})
	}
	return out
}

// maxRetryAfterSeconds caps the Retry-After hint: past a point a bigger
// backlog says "come back much later", and 8s is already longer than any
// warm request takes.
const maxRetryAfterSeconds = 8

// retryAfter computes the Retry-After hint of a 429: one polite second as
// the floor, plus the current backlog (executing + queued) measured in
// multiples of the server's own capacity. A server one-deep in work says
// "2"; one drowning four capacities deep says "5" — so coordinators that
// honor the hint spread their retries with the actual load instead of
// hammering a fixed beat.
func (g *gate) retryAfter() string {
	load := g.inFlight.Load() + g.queued.Load()
	secs := 1 + load/int64(cap(g.slots))
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return strconv.FormatInt(secs, 10)
}

// wrap gates a handler under the endpoint's label: a free slot admits
// immediately; otherwise the request queues while the bounded queue has
// room, and is rejected with 429 + Retry-After once it does not. A client
// that gives up while queued is answered 503 (nothing else is left to say,
// but proxies that still listen get a truthful status).
func (g *gate) wrap(endpoint string, next http.Handler) http.Handler {
	eg := g.register(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case g.slots <- struct{}{}:
		default:
			// Saturated: take a queue ticket or reject. The Add/undo pair
			// keeps the bound exact under concurrent arrivals.
			if g.queued.Add(1) > g.queueCap {
				g.queued.Add(-1)
				eg.rejected.Add(1)
				w.Header().Set("Retry-After", g.retryAfter())
				writeJSON(w, http.StatusTooManyRequests,
					errorJSON{Error: fmt.Sprintf("server saturated: %d in flight and %d queued; retry later", cap(g.slots), g.queueCap)})
				return
			}
			eg.queued.Add(1)
			select {
			case g.slots <- struct{}{}:
				eg.queued.Add(-1)
				g.queued.Add(-1)
			case <-r.Context().Done():
				eg.queued.Add(-1)
				g.queued.Add(-1)
				writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "request cancelled while queued"})
				return
			}
		}
		g.inFlight.Add(1)
		eg.inFlight.Add(1)
		defer func() {
			eg.inFlight.Add(-1)
			g.inFlight.Add(-1)
			<-g.slots
		}()
		next.ServeHTTP(w, r)
	})
}

// errorJSON is the error body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

// policy says how a coordinator serves a route.
type policy int

const (
	// relayed routes go to the worker owning the request's RouteKey, with
	// the local handler as the fallback for what cannot be routed.
	relayed policy = iota
	// planned routes plan locally and execute each cell through the tier's
	// CellRunner.
	planned
	// local routes are always answered by the local service: what exists
	// cannot depend on which workers are up.
	local
)

// route is one row of the API table.
type route struct {
	method, path string
	// gate is the admission-gate label, shared by both verbs of one
	// endpoint.
	gate   string
	policy policy
	// query, when set, serves a GET spelling of a POST handler: it turns
	// the query string into the request the POST body carries.
	query func(url.Values) (any, error)
	// handler builds the endpoint over a service; planned routes execute
	// their cells with run.
	handler func(s *Service, run CellRunner) http.Handler
}

// routes is the HTTP/JSON API, one row per endpoint, in /readyz gauge
// order. Both tiers build their muxes from it (Tier.Handler), so adding an
// endpoint is one row here plus the Service method behind it.
//
//	POST /v1/predict              PredictRequest  → PredictResponse
//	POST /v1/sweep                SweepRequest    → SweepResponse
//	POST /v1/sweep?stream=ndjson  SweepRequest    → NDJSON SweepStreamLines
//	POST /v1/collect              CollectRequest  → CollectResponse
//	POST /v1/curve                CurveRequest    → CurveResponse
//	POST /v1/cell                 CellRequest     → CellResponse
//	POST /v1/explore              ExploreRequest  → ExploreResponse
//	POST /v1/diagnose             DiagnoseRequest → DiagnoseResponse
//	GET  /v1/diagnose             (query params)  → DiagnoseResponse
//	GET  /v1/workloads[?schemas=1]                → WorkloadsResponse
//	GET  /v1/machines[?schemas=1]                 → MachinesResponse
var routes = []route{
	{"POST", "/v1/predict", "predict", relayed, nil, serve((*Service).Predict)},
	{"POST", "/v1/sweep", "sweep", planned, nil, sweepHandler},
	{"POST", "/v1/collect", "collect", relayed, nil, serve((*Service).Collect)},
	{"POST", "/v1/curve", "curve", relayed, nil, serve((*Service).Curve)},
	{"POST", "/v1/cell", "cell", relayed, nil, serve((*Service).Cell)},
	{"POST", "/v1/explore", "explore", planned, nil, func(s *Service, run CellRunner) http.Handler {
		return handleJSON(func(ctx context.Context, req ExploreRequest) (*ExploreResponse, error) {
			return s.explore(ctx, req, run)
		})
	}},
	{"POST", "/v1/diagnose", "diagnose", relayed, nil, serve((*Service).Diagnose)},
	{"GET", "/v1/diagnose", "diagnose", relayed, func(q url.Values) (any, error) {
		return diagnoseRequestFromQuery(q)
	}, serve((*Service).Diagnose)},
	{"GET", "/v1/workloads", "workloads", local, nil, registry(func(l *ListResponse) any {
		return WorkloadsResponse{APIVersion: l.APIVersion, Workloads: l.Workloads, Families: l.WorkloadFamilies}
	})},
	{"GET", "/v1/machines", "machines", local, nil, registry(func(l *ListResponse) any {
		return MachinesResponse{APIVersion: l.APIVersion, Machines: l.Machines, Families: l.MachineFamilies}
	})},
}

// Tier is what a serving tier substitutes into the route table. The zero
// Tier serves every route from the Service itself, as a single process or
// a worker does.
type Tier struct {
	// Relay, when set, wraps the local handler of every relayed route; path
	// names the endpoint.
	Relay func(path string, local http.Handler) http.Handler
	// RunCell, when set, executes the cells of planned routes.
	RunCell CellRunner
	// Ready, when set, completes the /readyz body.
	Ready func(ctx context.Context, ready *ReadyResponse)
}

// NewHandler serves a Service over the HTTP/JSON API (see routes) as a
// single process or, with cfg.Mode "worker", a coordinator's worker.
func NewHandler(svc *Service, cfg ServerConfig) http.Handler {
	return Tier{}.Handler(svc, cfg)
}

// Handler builds the API mux over svc from the route table with the tier's
// substitutions. Every /v1/* request runs under the admission gate and the
// request's context, so a disconnecting client cancels its pipeline workers
// and a saturated server rejects with 429 instead of hanging. /healthz and
// /readyz never touch the gate: probes must answer even when every slot and
// queue ticket is taken.
func (t Tier) Handler(svc *Service, cfg ServerConfig) http.Handler {
	g := newGate(cfg.MaxInFlight, cfg.MaxQueue)
	mode := cfg.Mode
	if mode == "" {
		mode = "single"
	}
	if t.RunCell == nil {
		t.RunCell = svc.RunCell
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"version":   APIVersion,
			"in_flight": g.InFlight(),
			"queued":    g.Queued(),
			"capacity":  g.Capacity(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready := &ReadyResponse{
			APIVersion: APIVersion,
			Status:     "ok",
			Mode:       mode,
			StoreDir:   svc.StoreDir(),
			Capacity:   g.Capacity(),
			Queue:      g.Depths(),
		}
		if t.Ready != nil {
			t.Ready(r.Context(), ready)
		}
		writeJSON(w, http.StatusOK, ready)
	})
	for _, rt := range routes {
		h := rt.handler(svc, t.RunCell)
		if rt.policy == relayed && t.Relay != nil {
			h = t.Relay(rt.path, h)
		}
		if rt.query != nil {
			h = queryAsBody(rt.query, h)
		}
		mux.Handle(rt.method+" "+rt.path, g.wrap(rt.gate, h))
	}
	return mux
}

// serve adapts one typed Service method to a route handler.
func serve[Req, Resp any](method func(*Service, context.Context, Req) (*Resp, error)) func(*Service, CellRunner) http.Handler {
	return func(s *Service, _ CellRunner) http.Handler {
		return handleJSON(func(ctx context.Context, req Req) (*Resp, error) { return method(s, ctx, req) })
	}
}

// queryAsBody serves the GET spelling of a POST handler: the query builds
// the same request the POST body carries (a bad query answers its error
// directly), marshalled into that body, so both verbs answer
// byte-identically through one handler — and, at a coordinator, one relay,
// where they coalesce together and a worker only ever sees the POST form.
func queryAsBody(parse func(url.Values) (any, error), post http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := parse(r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		body, err := json.Marshal(req)
		if err != nil {
			writeError(w, err)
			return
		}
		pr := r.Clone(r.Context())
		pr.Method = http.MethodPost
		pr.Body = io.NopCloser(bytes.NewReader(body))
		post.ServeHTTP(w, pr)
	})
}

// registry serves one GET projection of the ListResponse; ?schemas=1
// additionally returns each family's parameter schema (the spec grammar's
// keys, types, bounds, defaults).
func registry(project func(*ListResponse) any) func(*Service, CellRunner) http.Handler {
	return func(s *Service, _ CellRunner) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			resp, err := s.List(r.Context(), ListRequest{Verbose: wantSchemas(r)})
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, project(resp))
		})
	}
}

// wantSchemas reads the ?schemas= flag of the GET endpoints: explicit
// falsy values ("0", "false") keep the compact body, anything else
// non-empty asks for the parameter schemas.
func wantSchemas(r *http.Request) bool {
	switch r.URL.Query().Get("schemas") {
	case "", "0", "false":
		return false
	}
	return true
}

// sweepHandler serves POST /v1/sweep. Without a stream parameter it is the
// plain buffered request/response exchange; with ?stream=ndjson it streams
// one SweepStreamLine per finished cell — in deterministic plan order, each
// flushed as it completes — plus a final summary line, so a client watching
// a long sweep sees cells as they land instead of one response at the end.
func sweepHandler(s *Service, run CellRunner) http.Handler {
	plain := handleJSON(func(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
		return s.sweep(ctx, req, run)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("stream") {
		case "":
			plain.ServeHTTP(w, r)
			return
		case "ndjson":
		default:
			writeJSON(w, http.StatusBadRequest,
				errorJSON{Error: fmt.Sprintf("unknown stream format %q (want ndjson)", r.URL.Query().Get("stream"))})
			return
		}
		req, ok := decodeRequest[SweepRequest](w, r)
		if !ok {
			return
		}
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		streaming := false
		writeLine := func(line SweepStreamLine) error {
			if !streaming {
				// The header is written lazily so a sweep that fails
				// validation still answers a proper error status.
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				streaming = true
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		sum, err := s.sweepStream(r.Context(), req, run, func(c SweepCell) error {
			return writeLine(SweepStreamLine{Cell: &c})
		})
		if err != nil {
			if !streaming {
				writeError(w, err)
				return
			}
			// Mid-stream there is no status code left to change; a final
			// error line documents the truncation for the client.
			writeLine(SweepStreamLine{Error: err.Error()})
			return
		}
		writeLine(SweepStreamLine{Summary: sum})
	})
}

// MaxBodyBytes bounds request bodies. The largest legitimate request is a
// replayed measurement-series document (~100 KB for a 48-core series); 8 MB
// leaves generous headroom while keeping a hostile body from ballooning
// server memory. The coordinator's relay path applies the same cap, so a
// request's size limit is identical at every tier.
const MaxBodyBytes = 8 << 20

// decodeRequest strictly decodes a size-capped request body, answering 400
// itself on failure (ok reports success). Every /v1/* endpoint — buffered
// and streaming alike — decodes through it, so the strict-decoding contract
// cannot drift between endpoints.
func decodeRequest[Req any](w http.ResponseWriter, r *http.Request) (Req, bool) {
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("decoding request: %v", err)})
		return req, false
	}
	return req, true
}

// handleJSON adapts one typed service method to HTTP: decode the
// size-capped request body strictly, execute under the request context,
// encode the response.
func handleJSON[Req any, Resp any](fn func(context.Context, Req) (*Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeRequest[Req](w, r)
		if !ok {
			return
		}
		resp, err := fn(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// WriteError maps service errors to status codes: the caller's fault → 400,
// a dead client → 499 (nginx's convention for "client closed request"),
// deadline → 504, everything else → 500. Exported for the coordinator's
// relay, whose error bodies must be byte-identical to a single process's.
func WriteError(w http.ResponseWriter, err error) { writeError(w, err) }

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case IsBadRequest(err):
		status = http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		status = 499
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// writeJSON writes v as the indented JSON body every endpoint answers with.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	EncodeJSON(w, v) // the response is already built; a broken pipe here is the client's problem
}

// EncodeJSON writes v to w as every endpoint encodes its body: indented by
// two spaces, with one trailing newline. The CLI's JSON formats write
// through it too, so they equal the HTTP bodies byte for byte.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
