package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/pool"
	"repro/internal/service"
)

// NewHandler serves a Coordinator over the same route table as a
// single-process server: identical routes, admission gate and bodies —
// clients cannot tell the tiers apart, except that /readyz additionally
// reports the fleet. The coordinator substitutes only its relay, its
// per-cell runner and the fleet half of /readyz; everything else, planning
// included, is the embedded local service's.
func NewHandler(c *Coordinator, cfg service.ServerConfig) http.Handler {
	cfg.Mode = "coordinator"
	return service.Tier{Relay: c.relayHandler, RunCell: c.runCell, Ready: c.ready}.Handler(c.cfg.Local, cfg)
}

// readyFanout bounds concurrent worker /readyz fetches.
const readyFanout = 8

// ready completes the coordinator's /readyz body: one WorkerReady per
// configured worker (ring share, router health verdict, and the worker's
// own readiness when reachable), and the coalescing counters.
func (c *Coordinator) ready(ctx context.Context, resp *service.ReadyResponse) {
	shares := c.ring.Shares()
	resp.Workers = make([]service.WorkerReady, len(c.workers))
	pool.ForN(len(c.workers), readyFanout, func(i int) {
		wr := service.WorkerReady{
			Addr:    c.workers[i],
			Healthy: c.healthy[i].Load(),
			Share:   shares[i],
		}
		fctx, cancel := context.WithTimeout(ctx, probeTimeout)
		defer cancel()
		if ready, err := c.fetchReady(fctx, c.workers[i]); err != nil {
			wr.Error = err.Error()
		} else {
			wr.Ready = ready
		}
		resp.Workers[i] = wr
	})
	relayStarted, relayHits := c.relayFlights.Stats()
	cellStarted, cellHits := c.cellFlights.Stats()
	resp.Coalesce = []service.CoalesceStat{
		{Endpoint: "relay", Started: relayStarted, Hits: relayHits},
		{Endpoint: "cell", Started: cellStarted, Hits: cellHits},
	}
}

// fetchReady pulls one worker's own /readyz.
func (c *Coordinator) fetchReady(ctx context.Context, base string) (*service.ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	var ready service.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		return nil, err
	}
	return &ready, nil
}
