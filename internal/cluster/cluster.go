// Package cluster is the scale-out tier over internal/service: a
// coordinator that routes requests across a fleet of ordinary `estima serve
// -worker` processes, each owning a store shard and fit cache.
//
// Routing is by consistent hash of the canonical scenario identity
// (service.RouteKey over the spec-canonical workload and machine names —
// the PR 5 identity layer makes sharding free): every request for one
// scenario lands on the worker whose store and memos already hold it.
// The coordinator serves the service's own route table (service.Tier),
// substituting only a relay, a per-cell runner and the fleet half of
// /readyz. Sweeps and explores are planned locally (service.PlanSweep —
// identical validation, identical plan order), fanned out one cell per
// worker request, and merged plan-index-order-stable, so coordinator
// responses are byte-identical to single-process ones; the conformance
// suite locks that. Overlapping requests from different clients coalesce in
// flight groups (internal/flight) before they ever reach a worker: relays
// while they are in flight, and sweep and explore cells in a memo that also
// answers every repeat of a cell it has seen.
// Workers that fail probes or requests are routed around via the ring's
// successor order, with the coordinator's own embedded Service as the last
// resort — degraded service is cold and slower but never wrong, because
// every result is deterministic.
//
//estima:timing health probing, retry backoff and probe deadlines are inherently wall-clock
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/ring"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/workloads"
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the worker base addresses ("host:port" or full URLs).
	// Their spelling is routing identity: every coordinator of one fleet
	// must list the same strings.
	Workers []string
	// Local is the coordinator's own embedded Service. It answers registry
	// requests (/v1/workloads, /v1/machines — fleet state must never change
	// registry answers), validates and plans sweeps, serves requests that
	// carry no routable scenario (replayed series, malformed bodies — so
	// error bytes match single-process validation exactly), and executes as
	// the last resort when every worker is down.
	Local *service.Service
	// Client performs worker requests; nil means a fresh default client
	// (no global timeout — request contexts govern lifetimes).
	Client *http.Client
	// Retries is the transient-failure retry budget per worker before
	// failing over to the next ring successor; 0 or negative means fail
	// over immediately. Serving mode (estima serve -coordinator) sets 2.
	Retries int
	// RetryBase is the backoff base between retries (jittered, doubling);
	// 0 means 50ms.
	RetryBase time.Duration
	// ProbeInterval is the background health-probe period; 0 disables
	// probing (workers are then marked unhealthy only passively, by failed
	// requests, and never revived — fine for tests, wrong for serving).
	ProbeInterval time.Duration
}

// probeTimeout bounds one health probe or worker readiness fetch.
const probeTimeout = 2 * time.Second

// Coordinator routes requests over the worker fleet. Build with New, serve
// with NewHandler, stop with Close.
type Coordinator struct {
	cfg     Config
	workers []string // normalized base URLs, configuration order
	ring    *ring.Ring
	healthy []atomic.Bool
	client  *http.Client

	// relayFlights coalesces identical relayed requests (key: path + raw
	// body) and forgets each flight as soon as it completes: a relayed
	// answer carries worker-local fields (store_dir, cache_hit), so the
	// worker's store and memos are its durable layers. cellFlights is a memo
	// of sweep and explore cells by fit identity (key: PlannedCell.FitKey),
	// one cell per fit artifact and as many as a worker's fit memo holds, so
	// a repeated or *overlapping* grid, whose body differs, answers every
	// cell it has seen without a worker request. A cell that carries an
	// Error is not retained.
	relayFlights *flight.Group[string, relayResult]
	cellFlights  *flight.Group[service.FitKey, service.SweepCell]

	stop context.CancelFunc
	wg   sync.WaitGroup
}

// New builds a Coordinator and starts its health probes (when
// Config.ProbeInterval > 0). Workers start out presumed healthy.
//
//estima:allow ctxflow probes are background daemons owned by the Coordinator itself; Close is their cancellation
func New(cfg Config) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: Config.Local service is required")
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	c := &Coordinator{
		cfg:          cfg,
		workers:      make([]string, len(cfg.Workers)),
		healthy:      make([]atomic.Bool, len(cfg.Workers)),
		client:       cfg.Client,
		relayFlights: flight.New[string, relayResult](0),
		cellFlights:  flight.New[service.FitKey, service.SweepCell](service.DefaultFitCacheSize),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for i, addr := range cfg.Workers {
		c.workers[i] = normalizeAddr(addr)
		c.healthy[i].Store(true)
	}
	c.ring = ring.New(c.workers)

	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	if cfg.ProbeInterval > 0 {
		for i := range c.workers {
			c.wg.Add(1)
			// One long-lived prober per configured worker; the fleet size is
			// fixed at construction.
			//estima:allow boundedspawn one prober goroutine per configured worker, bounded by the static fleet size
			go c.probeLoop(ctx, i)
		}
	}
	return c, nil
}

// Close stops the health probes. In-flight relays are not interrupted.
func (c *Coordinator) Close() {
	c.stop()
	c.wg.Wait()
}

// normalizeAddr turns "host:port" into a base URL.
func normalizeAddr(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// probeLoop probes one worker until ctx ends, flipping its health flag on
// every verdict — so a worker that died (or was restarted) leaves (or
// rejoins) the routing set within one interval.
func (c *Coordinator) probeLoop(ctx context.Context, i int) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			c.healthy[i].Store(c.probeOnce(pctx, i))
			cancel()
		}
	}
}

// probeOnce asks one worker's /healthz (which never blocks on its admission
// gate, so saturation is not death).
func (c *Coordinator) probeOnce(ctx context.Context, i int) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.workers[i]+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// relayResult is a worker's raw answer: relayed verbatim — byte-identical
// bodies are the whole point, so the coordinator never re-encodes.
type relayResult struct {
	status     int
	body       []byte
	retryAfter string
}

// transientStatus reports the statuses worth failing over on: overload and
// gateway-ish failures. Deterministic outcomes (2xx, 4xx, plain 500s)
// relay verbatim — retrying cannot change them, and a fallback would only
// reproduce the same bytes slower.
func transientStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// post performs one worker request.
func (c *Coordinator) post(ctx context.Context, url string, body []byte) (relayResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return relayResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return relayResult{}, err
	}
	defer resp.Body.Close()
	// Worker responses went through the same MaxBodyBytes-capped encoder
	// tier; the cap here only guards a corrupted peer.
	b, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
	if err != nil {
		return relayResult{}, err
	}
	return relayResult{status: resp.StatusCode, body: b, retryAfter: resp.Header.Get("Retry-After")}, nil
}

// backoffCeil bounds any single retry delay, hinted or not.
const backoffCeil = 2 * time.Second

// backoff sleeps the retry delay before the next attempt (or returns early
// when ctx dies). A worker that 429'd with a Retry-After hint is believed —
// it knows its own queue depth — capped at the ceiling; without a hint the
// delay is the jittered, doubling schedule. Jitter decorrelates the retry
// storms of concurrent cells all aimed at one struggling worker; a hinted
// delay needs none, because the worker scales its hints with load.
func (c *Coordinator) backoff(ctx context.Context, attempt int, hint time.Duration) {
	d := hint
	if d > backoffCeil {
		d = backoffCeil
	}
	if d <= 0 {
		d = c.cfg.RetryBase << attempt
		if d > backoffCeil {
			d = backoffCeil
		}
		d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// retryAfterHint parses a worker's Retry-After header (the delay-seconds
// form — the only one this tier emits). 0 means no usable hint.
func retryAfterHint(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// relay routes one request body along routeKey's failover sequence:
// healthy workers in ring-successor order, each with a retry budget for
// transient failures (429 delays honor the worker's Retry-After hint). A
// worker that exhausts its budget is marked unhealthy (probes revive it)
// and the next successor inherits its range. The error distinguishes the
// two ways a relay ends without an answer: ctx's own error when the caller
// died mid-relay (no worker is at fault, and no fallback must run for a
// client that already hung up), errFleetDown when every worker failed (the
// caller falls back to the local service).
func (c *Coordinator) relay(ctx context.Context, path, routeKey string, body []byte) (relayResult, error) {
	for _, wi := range c.ring.Seq(routeKey) {
		if !c.healthy[wi].Load() {
			continue
		}
		for attempt := 0; ; attempt++ {
			if err := ctx.Err(); err != nil {
				return relayResult{}, err
			}
			res, err := c.post(ctx, c.workers[wi]+path, body)
			if err == nil && !transientStatus(res.status) {
				return res, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				// The failure is the caller's own death, not the worker's:
				// don't burn its health budget, just report the cancellation.
				return relayResult{}, cerr
			}
			if attempt >= c.cfg.Retries {
				c.healthy[wi].Store(false)
				break
			}
			var hint time.Duration
			if err == nil && res.status == http.StatusTooManyRequests {
				hint = retryAfterHint(res.retryAfter)
			}
			c.backoff(ctx, attempt, hint)
		}
	}
	if err := ctx.Err(); err != nil {
		return relayResult{}, err
	}
	return relayResult{}, errFleetDown
}

// routeKeyFor extracts the routing identity from a request body: the
// canonical workload and machine names. ok=false means the request is not
// routable — undecodable, carries a replayed series (its data is in the
// body, not in any shard), names nothing, or names something unknown — and
// must be served by the local service so validation errors keep their
// exact single-process bytes.
func routeKeyFor(body []byte) (string, bool) {
	var probe struct {
		Workload string          `json:"workload"`
		Machine  string          `json:"machine"`
		Series   json.RawMessage `json:"series"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return "", false
	}
	if len(probe.Series) > 0 || probe.Workload == "" || probe.Machine == "" {
		return "", false
	}
	w, err := workloads.Lookup(probe.Workload)
	if err != nil {
		return "", false
	}
	m, err := machine.Lookup(probe.Machine)
	if err != nil {
		return "", false
	}
	return service.RouteKey(w.Name(), m.Name), true
}

// relayHandler serves one POST endpoint by routing it across the fleet,
// coalescing identical in-flight bodies, and delegating everything
// unroutable (or fleet-orphaned) to the local bare handler — which is the
// exact single-process code path, so bytes cannot diverge.
func (c *Coordinator) relayHandler(path string, local http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxBodyBytes+1))
		if err != nil {
			service.WriteError(w, err)
			return
		}
		// Whatever happens next may re-read the body from the start.
		r.Body = io.NopCloser(bytes.NewReader(body))
		key, ok := routeKeyFor(body)
		if !ok || len(body) > service.MaxBodyBytes {
			local.ServeHTTP(w, r)
			return
		}
		res, err := c.relayFlights.Do(r.Context(), path+"\x00"+string(body),
			func(ctx context.Context) (relayResult, error) {
				return c.relay(ctx, path, key, body)
			})
		if err != nil {
			if cerr := r.Context().Err(); cerr != nil {
				// This client hung up mid-relay. Answer its context error
				// (nobody may be listening, but proxies get a truthful 499)
				// instead of burning a full local simulation for it.
				service.WriteError(w, cerr)
				return
			}
			// Fleet down: the local service is the last resort — cold,
			// correct, slower.
			local.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if res.retryAfter != "" {
			w.Header().Set("Retry-After", res.retryAfter)
		}
		w.WriteHeader(res.status)
		w.Write(res.body)
	})
}

// errFleetDown marks a relay that exhausted every worker.
var errFleetDown = fmt.Errorf("cluster: no healthy worker reachable")

// errCellFailed marks a cell flight whose cell carries an Error: its
// waiters still get the cell, but the memo does not retain it, as a
// worker's fit memo never retains a failed fit.
var errCellFailed = errors.New("cluster: cell failed")

// runCell is the coordinator's CellRunner, shared by sweeps and explores:
// one planned cell, memoized by fit identity — overlapping grids, even
// from different clients, asking for the same (series, options, targets)
// artifact share one worker request, and a repeat asks none. Worker
// failures fail over along the ring and bottom out at the local service;
// only the caller's own cancellation surfaces as an error cell (never
// emitted — the response aborts first). A cell the plan already failed
// runs on the local service, which returns it without simulating, before
// the memo or any worker sees it.
func (c *Coordinator) runCell(ctx context.Context, pc *service.PlannedCell) service.SweepCell {
	if pc.Err != nil {
		return c.cfg.Local.RunCell(ctx, pc)
	}
	if cell, ok := c.cellFlights.Get(pc.FitKey); ok {
		return cell
	}
	cell, err := c.cellFlights.Do(ctx, pc.FitKey, func(ctx context.Context) (service.SweepCell, error) {
		cell, err := c.executeCell(ctx, pc)
		if err == nil && cell.Error != "" {
			err = errCellFailed
		}
		return cell, err
	})
	if err != nil && !errors.Is(err, errCellFailed) {
		return service.SweepCell{Workload: pc.Request.Workload, Machine: pc.Request.Machine,
			MeasCores: pc.Request.MeasCores, Error: err.Error()}
	}
	return cell
}

// executeCell runs one planned cell against the fleet: route its request
// along the ring, decode the worker's cell, or — when no worker answers
// 200 — run it on the embedded local service (cold, correct, slower)
// exactly as a single process would. Decoded-then-re-encoded cells are
// byte-stable: encoding/json round-trips every float64 to the identical
// shortest representation.
func (c *Coordinator) executeCell(ctx context.Context, pc *service.PlannedCell) (service.SweepCell, error) {
	req := pc.Request
	body, err := json.Marshal(req)
	if err != nil {
		return service.SweepCell{}, err
	}
	routeKey := service.RouteKey(req.Workload, req.Machine)
	if res, rerr := c.relay(ctx, "/v1/cell", routeKey, body); rerr == nil && res.status == http.StatusOK {
		var cr service.CellResponse
		if json.Unmarshal(res.body, &cr) == nil {
			return cr.Cell, nil
		}
	}
	if err := ctx.Err(); err != nil {
		// Every waiter of this cell flight is gone: return the cancellation
		// instead of burning a local simulation nobody will read.
		return service.SweepCell{}, err
	}
	return c.cfg.Local.RunCell(ctx, pc), nil
}
