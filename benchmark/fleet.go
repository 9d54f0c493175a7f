package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/ring"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
)

// gateSize sizes every admission gate above the benchmark's own
// concurrency, so the run measures serving, not shedding; a 429 fails the
// request that got it.
const gateSize = 16

// simCall is one recorded simulation.
type simCall struct {
	w     sim.Workload
	m     *machine.Config
	cores int
	scale float64
	d     time.Duration
}

// collector is the service.Config.CollectSample hook of every service the
// benchmark builds: sim.Collect, timed, counted, and under tracing recorded
// as a "sim" span of the request in flight.
type collector struct {
	tr    *tracer
	calls atomic.Int64
	nanos atomic.Int64

	mu     sync.Mutex
	recent []simCall // the first recentCap calls, for the op-count sample
}

const recentCap = 4096

func (col *collector) collect(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
	sp := col.tr.begin("sim", col.tr.current.Load(), col.tr.curReq.Load())
	t0 := time.Now()
	s, err := sim.Collect(w, m, cores, scale)
	d := time.Since(t0)
	sp.finish()
	col.calls.Add(1)
	col.nanos.Add(int64(d))
	col.mu.Lock()
	if len(col.recent) < recentCap {
		col.recent = append(col.recent, simCall{w, m, cores, scale, d})
	}
	col.mu.Unlock()
	return s, err
}

// newService builds a service whose simulations go through col.
func newService(dir string, col *collector) (*service.Service, error) {
	return service.New(service.Config{CacheDir: dir, CollectSample: col.collect})
}

// transport is a keep-alive loopback transport; no proxy may sit between
// the benchmark and its own servers.
func transport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.Proxy = nil
	t.MaxIdleConnsPerHost = gateSize
	return t
}

// client sends the benchmark's requests. Under tracing each request is a
// root "client" span whose identity travels in headers.
type client struct {
	http *http.Client
	tr   *tracer
	ids  atomic.Int64

	sentBytes, recvBytes, requests, rejected atomic.Int64
}

func newClient(tr *tracer) *client {
	return &client{http: &http.Client{Transport: transport()}, tr: tr}
}

// ok sends one request and fails unless it answers 200.
func (cl *client) ok(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	id := cl.ids.Add(1)
	sp := cl.tr.begin("client", 0, id)
	defer sp.finish()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != nil {
		setSpanHeaders(req.Header, spanRef{id: sp.id(), req: id})
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	cl.requests.Add(1)
	cl.sentBytes.Add(int64(len(body)))
	cl.recvBytes.Add(int64(len(out)))
	if resp.StatusCode == http.StatusTooManyRequests {
		cl.rejected.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s %.120s: status %d: %.300s", method, url, body, resp.StatusCode, strings.Join(strings.Fields(string(out)), " "))
	}
	return out, nil
}

// single is one single-process server: a service behind service.NewHandler
// on a loopback socket.
type single struct {
	svc *service.Service
	srv *httptest.Server
	dir string
}

func newSingle(dir string, col *collector, tr *tracer, current bool) (*single, error) {
	svc, err := newService(dir, col)
	if err != nil {
		return nil, err
	}
	h := service.NewHandler(svc, service.ServerConfig{MaxInFlight: gateSize})
	return &single{svc: svc, srv: httptest.NewServer(tr.middleware("server", current, h)), dir: dir}, nil
}

func (s *single) close() { s.srv.Close() }

// fleet is the cluster tier in process: two workers and one coordinator,
// each behind its real handler on its own loopback socket.
type fleet struct {
	workers []*single
	local   *service.Service
	coord   *cluster.Coordinator
	front   *httptest.Server
	ring    *ring.Ring
}

func newFleet(dir string, col *collector, tr *tracer) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		svc, err := newService(filepath.Join(dir, fmt.Sprintf("worker%d", i)), col)
		if err != nil {
			f.close()
			return nil, err
		}
		h := service.NewHandler(svc, service.ServerConfig{Mode: "worker", MaxInFlight: gateSize})
		w := &single{svc: svc, srv: httptest.NewServer(tr.middleware("worker", false, h)), dir: filepath.Join(dir, fmt.Sprintf("worker%d", i))}
		f.workers = append(f.workers, w)
		urls = append(urls, w.srv.URL)
	}
	local, err := newService(filepath.Join(dir, "local"), col)
	if err != nil {
		f.close()
		return nil, err
	}
	f.local = local
	coord, err := cluster.New(cluster.Config{
		Workers: urls,
		Local:   local,
		Retries: 2,
		Client:  &http.Client{Transport: roundTripper{t: tr, next: transport()}},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	f.front = httptest.NewServer(tr.middleware("coordinator", false,
		cluster.NewHandler(coord, service.ServerConfig{MaxInFlight: gateSize})))
	f.ring = ring.New(urls)
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		w.close()
	}
}

// fitStats sums the fitted-model counters of every service in the fleet.
func (f *fleet) fitStats() (computed, hits int64) {
	for _, w := range f.workers {
		c, h := w.svc.FitCacheStats()
		computed, hits = computed+c, hits+h
	}
	c, h := f.local.FitCacheStats()
	return computed + c, hits + h
}

// owner returns the worker owning a scenario's shard.
func (f *fleet) owner(sc scenario) *single {
	return f.workers[f.ring.Seq(service.RouteKey(sc.Workload, sc.Machine))[0]]
}

// coalesce reads the coordinator's coalescing counters from /readyz,
// summed over flight classes.
func (f *fleet) coalesce(ctx context.Context, cl *client) (started, hits int64, err error) {
	body, err := cl.ok(ctx, http.MethodGet, f.front.URL+"/readyz", nil)
	if err != nil {
		return 0, 0, err
	}
	var ready service.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		return 0, 0, err
	}
	for _, c := range ready.Coalesce {
		started, hits = started+c.Started, hits+c.Hits
	}
	return started, hits, nil
}

// storeUsage counts the files and bytes under dirs.
func storeUsage(dirs ...string) (files int, bytes int64) {
	for _, dir := range dirs {
		filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				files++
				bytes += fi.Size()
			}
			return nil
		})
	}
	return files, bytes
}
