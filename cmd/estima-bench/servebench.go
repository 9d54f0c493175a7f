package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/service"
	"repro/internal/stats"
)

// serveBenchLevel is one offered-load step of the HTTP harness: a fixed
// number of closed-loop clients, each issuing its share of the mixed request
// schedule back-to-back.
type serveBenchLevel struct {
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Rejected counts 429 admission rejections; the client retries after the
	// backoff, so a rejection delays its request rather than dropping it.
	Rejected   int     `json:"rejected"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_rps"`
	P50Millis  float64 `json:"p50_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
}

// serveBenchJSON is the BENCH_http.json schema: end-to-end latency
// percentiles and throughput of the cluster tier (1 coordinator + 2 workers,
// in-process over real HTTP) under increasing concurrency. The fleet is
// warmed first, so the numbers isolate the serving path — routing, relay,
// admission, coalescing — from simulation cost.
type serveBenchJSON struct {
	Scale             float64           `json:"scale"`
	Workers           int               `json:"workers"`
	Mix               []string          `json:"mix"`
	RequestsPerClient int               `json:"requests_per_client"`
	Levels            []serveBenchLevel `json:"levels"`
}

// serveBenchMix is the client request schedule: registry reads, memo-served
// predictions and a fanned-out sweep, interleaved the way a dashboard or CI
// consumer would issue them.
var serveBenchMix = []struct {
	name   string
	method string
	path   string
	body   string
}{
	{"predict", http.MethodPost, "/v1/predict", `{"workload":"intruder","machine":"Haswell","scale":%g}`},
	{"workloads", http.MethodGet, "/v1/workloads", ""},
	{"predict2", http.MethodPost, "/v1/predict", `{"workload":"genome","machine":"Haswell","scale":%g}`},
	{"sweep", http.MethodPost, "/v1/sweep", `{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":%g}`},
	{"machines", http.MethodGet, "/v1/machines", ""},
	{"cell", http.MethodPost, "/v1/cell", `{"workload":"intruder","machine":"Haswell","scale":%g}`},
}

// serveBenchLevels are the offered-load steps: concurrency doubles twice
// past serial, so the JSON shows both the uncontended floor and queueing
// onset.
var serveBenchLevels = []int{1, 4, 16}

// runServeBench boots an in-process fleet (two `-worker` services plus one
// coordinator, connected over real loopback HTTP), warms every scenario in
// the mix, then drives it with closed-loop clients at each load level and
// writes BENCH_http.json.
func runServeBench(ctx context.Context, scale float64, outDir string) error {
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	const workers = 2
	// Size the admission gates to the peak offered load: the bench measures
	// serving latency under concurrency, not shedding (tests pin the 429
	// contract). Rejections that still occur are retried and reported.
	gateCap := 2 * serveBenchLevels[len(serveBenchLevels)-1]
	addrs := make([]string, workers)
	for i := range addrs {
		svc, err := service.New(service.Config{})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(service.NewHandler(svc, service.ServerConfig{Mode: "worker", MaxInFlight: gateCap}))
		servers = append(servers, ts)
		addrs[i] = ts.URL
	}
	local, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	coord, err := cluster.New(cluster.Config{Workers: addrs, Local: local, Retries: 2})
	if err != nil {
		return err
	}
	defer coord.Close()
	front := httptest.NewServer(cluster.NewHandler(coord, service.ServerConfig{MaxInFlight: gateCap}))
	servers = append(servers, front)

	client := &http.Client{}
	// doOne issues schedule entry i once, retrying 429 admission rejections
	// after a short backoff (a closed-loop client honoring backpressure).
	// The latency it reports spans the whole attempt chain — a shed request
	// pays its delay.
	doOne := func(i int) (d time.Duration, rejected int, err error) {
		m := serveBenchMix[i%len(serveBenchMix)]
		start := time.Now()
		for {
			var rdr io.Reader
			if m.body != "" {
				rdr = strings.NewReader(fmt.Sprintf(m.body, scale))
			}
			req, err := http.NewRequestWithContext(ctx, m.method, front.URL+m.path, rdr)
			if err != nil {
				return 0, rejected, err
			}
			resp, err := client.Do(req)
			if err != nil {
				return 0, rejected, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				return time.Since(start), rejected, nil
			case resp.StatusCode == http.StatusTooManyRequests && rejected < 1000:
				rejected++
				time.Sleep(time.Millisecond)
			default:
				return 0, rejected, fmt.Errorf("%s %s: status %d", m.method, m.path, resp.StatusCode)
			}
		}
	}

	// Warm every distinct scenario once so the fleet's stores and fit memos
	// hold the mix; the measured levels then exercise the serving path.
	warmStart := time.Now()
	for i := range serveBenchMix {
		if _, _, err := doOne(i); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	fmt.Printf("serve bench: fleet warmed in %.2fs; driving %d load levels\n",
		time.Since(warmStart).Seconds(), len(serveBenchLevels))

	const perClient = 50
	doc := serveBenchJSON{
		Scale:             scale,
		Workers:           workers,
		RequestsPerClient: perClient,
	}
	for _, m := range serveBenchMix {
		doc.Mix = append(doc.Mix, m.name)
	}
	for _, clients := range serveBenchLevels {
		latencies := make([][]float64, clients)
		errs := make([]int, clients)
		rejects := make([]int, clients)
		start := time.Now()
		pool.ForN(clients, clients, func(ci int) {
			for r := 0; r < perClient; r++ {
				if ctx.Err() != nil {
					return
				}
				// Offset the schedule per client so concurrent clients mix
				// endpoints instead of marching in lockstep.
				d, rejected, err := doOne(ci + r)
				rejects[ci] += rejected
				if err != nil {
					errs[ci]++
					continue
				}
				latencies[ci] = append(latencies[ci], d.Seconds()*1e3)
			}
		})
		elapsed := time.Since(start).Seconds()
		if err := ctx.Err(); err != nil {
			return err
		}
		var all []float64
		lvl := serveBenchLevel{Clients: clients, Seconds: elapsed}
		for ci := range latencies {
			all = append(all, latencies[ci]...)
			lvl.Errors += errs[ci]
			lvl.Rejected += rejects[ci]
		}
		sort.Float64s(all)
		lvl.Requests = len(all) + lvl.Errors
		if elapsed > 0 {
			lvl.Throughput = float64(lvl.Requests) / elapsed
		}
		if len(all) > 0 {
			lvl.P50Millis = stats.Quantile(all, 0.50)
			lvl.P95Millis = stats.Quantile(all, 0.95)
			lvl.P99Millis = stats.Quantile(all, 0.99)
		}
		doc.Levels = append(doc.Levels, lvl)
		fmt.Printf("serve bench: %2d clients  %4d req  %.2fs  %7.1f req/s  p50 %.2fms  p95 %.2fms  p99 %.2fms  rejected %d  errors %d\n",
			lvl.Clients, lvl.Requests, lvl.Seconds, lvl.Throughput, lvl.P50Millis, lvl.P95Millis, lvl.P99Millis, lvl.Rejected, lvl.Errors)
	}

	path, err := writeBench(outDir, "BENCH_http.json", doc)
	if err != nil {
		return err
	}
	fmt.Printf("serve bench: wrote %s\n", path)
	return nil
}
