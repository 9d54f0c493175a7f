package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
)

var bg = context.Background()

// onFirstWrite is a response recorder that runs fn once, right after the
// first body write — for a streamed sweep, the first emitted cell.
type onFirstWrite struct {
	*httptest.ResponseRecorder
	once sync.Once
	fn   func()
}

func (o *onFirstWrite) Write(b []byte) (int, error) {
	n, err := o.ResponseRecorder.Write(b)
	o.once.Do(o.fn)
	return n, err
}

// TestWorkerKillMidSweep is the degraded-operation lock, run under -race in
// CI: one worker dies after the first cell lands, and the sweep must still
// complete with bytes identical to the single-process golden — the dead
// worker's cells reroute (ring successor, then the local service), and
// determinism makes the reroute invisible.
func TestWorkerKillMidSweep(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	// Serial cells: the kill lands between cell 1 and cell 2.
	body := `{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05,"workers":1}`
	rec := &onFirstWrite{ResponseRecorder: httptest.NewRecorder(), fn: func() {
		// First cell emitted: the whole fleet goes down mid-sweep.
		for _, s := range f.servers {
			s.CloseClientConnections()
			s.Close()
		}
	}}
	f.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep?stream=ndjson", strings.NewReader(body)))
	got := rec.Body.Bytes()
	if want := serviceGolden(t, "sweep_stream.ndjson"); !bytes.Equal(got, want) {
		t.Errorf("post-kill stream differs from single-process golden.\n--- golden\n%s\n--- got\n%s", want, got)
	}
	lines := bytes.Split(bytes.TrimSpace(got), []byte("\n"))
	var last service.SweepStreamLine
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Summary == nil {
		t.Fatalf("stream does not end with a summary (%v): %s", err, got)
	}
	if last.Summary.Failures != 0 {
		t.Errorf("sweep reports %d failures after rerouting, want 0", last.Summary.Failures)
	}
}

// TestDeadWorkerFailsOverOnTheRing: with one worker down from the start,
// every request still answers golden bytes, and at least the surviving
// worker (or the local fallback) serves them. The dead worker is marked
// unhealthy after its first failed relay, so later requests skip it
// immediately.
func TestDeadWorkerFailsOverOnTheRing(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	f.servers[0].CloseClientConnections()
	f.servers[0].Close()

	body := `{"api_version":"v1","workload":"intruder","machine":"Haswell","scale":0.05,"compare":true}`
	status, got := do(t, f.handler, http.MethodPost, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("predict with half the fleet down: status %d (%s)", status, got)
	}
	if want := serviceGolden(t, "predict.json"); !bytes.Equal(got, want) {
		t.Error("failover predict differs from single-process golden")
	}
	// A full sweep with half the fleet down still matches the shared-state
	// sweep golden (the predict above warmed the same fits the golden run's
	// predict did).
	status, got = do(t, f.handler, http.MethodPost, "/v1/sweep",
		`{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05}`)
	if status != http.StatusOK {
		t.Fatalf("sweep with half the fleet down: status %d", status)
	}
	if want := serviceGolden(t, "sweep.json"); !bytes.Equal(got, want) {
		t.Errorf("failover sweep differs from golden.\n--- golden\n%s\n--- got\n%s", want, got)
	}
}

// TestCoalescingSharesOneFlight: two clients sending the identical request
// concurrently produce ONE worker request; the second joins the first's
// flight. The hit is visible on /readyz.
func TestCoalescingSharesOneFlight(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	blocking := service.Config{
		CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
			once.Do(func() { close(started) })
			<-release
			return sim.Collect(w, m, cores, scale)
		},
	}
	f := newFleet(t, 2, blocking)

	body := `{"workload":"intruder","machine":"Haswell","scale":0.05}`
	results := make(chan []byte, 2)
	go func() {
		_, b := do(t, f.handler, http.MethodPost, "/v1/predict", body)
		results <- b
	}()
	<-started // the first flight holds the worker

	// Wait until the second identical request has joined the first flight,
	// then release the measurement.
	go func() {
		_, b := do(t, f.handler, http.MethodPost, "/v1/predict", body)
		results <- b
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, hits := f.coord.relayFlights.Stats(); hits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight relay")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	a, b := <-results, <-results
	if !bytes.Equal(a, b) {
		t.Error("coalesced responses differ")
	}
	var workerRequests int64
	for _, w := range f.workers {
		workerRequests += w.hits.Load()
	}
	if workerRequests != 1 {
		t.Errorf("fleet served %d /v1/* requests for two identical clients, want 1", workerRequests)
	}
	started2, hits := f.coord.relayFlights.Stats()
	if started2 != 1 || hits != 1 {
		t.Errorf("relay flights started=%d hits=%d, want 1/1", started2, hits)
	}

	// The /readyz aggregate surfaces the counters.
	_, rb := do(t, f.handler, http.MethodGet, "/readyz", "")
	var ready service.ReadyResponse
	if err := json.Unmarshal(rb, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Mode != "coordinator" || len(ready.Workers) != 2 {
		t.Fatalf("readyz mode=%q workers=%d, want coordinator/2", ready.Mode, len(ready.Workers))
	}
	foundRelay := false
	for _, cs := range ready.Coalesce {
		if cs.Endpoint == "relay" && cs.Hits >= 1 {
			foundRelay = true
		}
	}
	if !foundRelay {
		t.Errorf("readyz coalesce %v does not report the relay hit", ready.Coalesce)
	}
	var share float64
	for _, w := range ready.Workers {
		share += w.Share
		if w.Error != "" {
			t.Errorf("worker %s readyz fetch failed: %s", w.Addr, w.Error)
		}
		if w.Ready == nil || w.Ready.Mode != "worker" {
			t.Errorf("worker %s aggregate missing its own readyz", w.Addr)
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("worker shares sum to %g, want 1", share)
	}
}

// TestOverlappingSweepsShareCells: two concurrent sweeps whose grids
// overlap on one scenario share that cell's flight — the cross-request DAG
// coalescing singleflight alone cannot provide.
func TestOverlappingSweepsShareCells(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	blocking := service.Config{
		CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
			once.Do(func() { close(started) })
			<-release
			return sim.Collect(w, m, cores, scale)
		},
	}
	f := newFleet(t, 2, blocking)

	run := func(workloads string, out chan<- *service.SweepResponse) {
		body := `{"workloads":[` + workloads + `],"machines":["Haswell"],"scale":0.05}`
		status, b := do(t, f.handler, http.MethodPost, "/v1/sweep", body)
		var resp service.SweepResponse
		if err := json.Unmarshal(b, &resp); status != http.StatusOK || err != nil {
			t.Errorf("sweep %s: status %d (%v): %s", workloads, status, err, b)
			out <- nil
			return
		}
		out <- &resp
	}
	aCh := make(chan *service.SweepResponse, 1)
	bCh := make(chan *service.SweepResponse, 1)
	go run(`"intruder"`, aCh)
	<-started
	go run(`"intruder","genome"`, bCh)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, hits := f.coord.cellFlights.Stats(); hits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overlapping sweep never joined the shared cell flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	a, b := <-aCh, <-bCh
	if a == nil || b == nil {
		t.Fatal("sweep failed")
	}
	if len(a.Cells) != 1 || len(b.Cells) != 2 {
		t.Fatalf("cell counts %d/%d, want 1/2", len(a.Cells), len(b.Cells))
	}
	ab, _ := json.Marshal(a.Cells[0])
	bb, _ := json.Marshal(b.Cells[0])
	if !bytes.Equal(ab, bb) {
		t.Errorf("shared cell differs between overlapping sweeps:\n%s\n%s", ab, bb)
	}
	cellsStarted, cellHits := f.coord.cellFlights.Stats()
	if cellHits < 1 {
		t.Errorf("cell flights started=%d hits=%d, want at least one shared hit", cellsStarted, cellHits)
	}
}
