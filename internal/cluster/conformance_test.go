package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/sim"
)

// countingHandler wraps a worker handler and counts the /v1/* requests it
// actually served — how tests observe routing and coalescing.
type countingHandler struct {
	inner http.Handler
	hits  atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		c.hits.Add(1)
	}
	c.inner.ServeHTTP(w, r)
}

// fleet is one in-process cluster: a coordinator over real HTTP workers.
type fleet struct {
	coord   *Coordinator
	handler http.Handler
	workers []*countingHandler
	servers []*httptest.Server
}

// newFleet boots n workers (ordinary service handlers in -worker mode, over
// real HTTP) and a coordinator routing across them. Probing is disabled and
// retries are zero, so failure handling is deterministic: one failed
// request fails a worker over for good.
func newFleet(t *testing.T, n int, svcCfg service.Config) *fleet {
	t.Helper()
	f := &fleet{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		svc, err := service.New(svcCfg)
		if err != nil {
			t.Fatal(err)
		}
		ch := &countingHandler{inner: service.NewHandler(svc, service.ServerConfig{Mode: "worker"})}
		ts := httptest.NewServer(ch)
		t.Cleanup(ts.Close)
		f.workers = append(f.workers, ch)
		f.servers = append(f.servers, ts)
		addrs[i] = ts.URL
	}
	local, err := service.New(svcCfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord, err = New(Config{Workers: addrs, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.coord.Close)
	f.handler = NewHandler(f.coord, service.ServerConfig{})
	return f
}

// requests is the number of /v1/* requests the fleet's workers have served.
func (f *fleet) requests() int64 {
	var n int64
	for _, w := range f.workers {
		n += w.hits.Load()
	}
	return n
}

// stop takes every worker down.
func (f *fleet) stop() {
	for _, s := range f.servers {
		s.CloseClientConnections()
		s.Close()
	}
}

// do performs one request against a handler.
func do(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// serviceGolden reads a file of the service conformance suite's testdata;
// its goldens are the single-process bytes the cluster is locked against.
// The cluster suite never rewrites them; regenerate with
// `go test ./internal/service -update`.
func serviceGolden(t *testing.T, file string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "service", "testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// conformanceCase is one request of the service conformance suite's case
// list (internal/service/testdata/conformance.json).
type conformanceCase struct {
	Golden, Method, Path string
	Body                 json.RawMessage
}

// conformanceCases reads that list, in order, so the fleet's memo state
// evolves the way the single process's did when the goldens were recorded.
func conformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	var cases []conformanceCase
	if err := json.Unmarshal(serviceGolden(t, "conformance.json"), &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestClusterConformance is the tentpole's lock: every service-suite golden
// answered by a coordinator + 2 workers must be byte-identical to
// single-process output. Responses travel request → coordinator → worker →
// raw relay (or plan → cell fan-out → merge), and none of that may show in
// the bytes.
func TestClusterConformance(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	for _, c := range conformanceCases(t) {
		t.Run(c.Golden, func(t *testing.T) {
			status, body := do(t, f.handler, c.Method, c.Path, string(c.Body))
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			if want := serviceGolden(t, c.Golden); !bytes.Equal(body, want) {
				t.Errorf("cluster body differs from single-process golden %s.\n--- single-process\n%s\n--- cluster\n%s",
					c.Golden, want, body)
			}
		})
	}
	// The compute endpoints must actually have been served by the fleet,
	// not the local fallback.
	if f.requests() == 0 {
		t.Error("no worker served any /v1/* request; everything fell back to the local service")
	}
}

// TestClusterStreamConformance locks the merged NDJSON stream — cell order
// is plan order regardless of which worker answers first — against the
// single-process sweep_stream.ndjson golden (recorded from a fresh service,
// so the fleet is fresh too).
func TestClusterStreamConformance(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	body := `{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05}`
	status, got := do(t, f.handler, http.MethodPost, "/v1/sweep?stream=ndjson", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if want := serviceGolden(t, "sweep_stream.ndjson"); !bytes.Equal(got, want) {
		t.Errorf("cluster stream differs from single-process golden.\n--- single-process\n%s\n--- cluster\n%s", want, got)
	}
}

// TestRegistryAnsweredLocally: /v1/workloads and /v1/machines come from the
// coordinator's own registry, never the fleet — the same bytes whether the
// workers are alive, dead, or absent.
func TestRegistryAnsweredLocally(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	for _, s := range f.servers {
		s.Close() // the whole fleet is down
	}
	for _, c := range []struct{ golden, path string }{
		{"workloads.json", "/v1/workloads"},
		{"machines.json", "/v1/machines"},
		{"workloads_schemas.json", "/v1/workloads?schemas=1"},
		{"machines_schemas.json", "/v1/machines?schemas=1"},
	} {
		status, body := do(t, f.handler, http.MethodGet, c.path, "")
		if status != http.StatusOK {
			t.Fatalf("GET %s with dead fleet: status %d", c.path, status)
		}
		if want := serviceGolden(t, c.golden); !bytes.Equal(body, want) {
			t.Errorf("GET %s with dead fleet differs from golden %s", c.path, c.golden)
		}
	}
	for i, w := range f.workers {
		if w.hits.Load() != 0 {
			t.Errorf("worker %d saw %d /v1/* requests for registry endpoints", i, w.hits.Load())
		}
	}
}

// TestClusterDiagnoseGetMatchesSingleProcess: the GET verb of /v1/diagnose
// goes query → canonical POST body → relay, and still answers the exact
// single-process bytes — for success (the service-suite golden) and for
// query parse errors alike.
func TestClusterDiagnoseGetMatchesSingleProcess(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	single, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh := service.NewHandler(single, service.ServerConfig{})

	path := "/v1/diagnose?workload=memcached%3Fskew%3D3&machine=Haswell&target=Xeon20&scale=0.05&soft=true"
	ss, sb := do(t, sh, http.MethodGet, path, "")
	cs, cb := do(t, f.handler, http.MethodGet, path, "")
	if ss != http.StatusOK || cs != http.StatusOK {
		t.Fatalf("status single=%d cluster=%d, want 200/200 (%s)", ss, cs, cb)
	}
	if !bytes.Equal(sb, cb) {
		t.Errorf("GET diagnose bytes differ.\n--- single\n%s\n--- cluster\n%s", sb, cb)
	}
	if want := serviceGolden(t, "diagnose.json"); !bytes.Equal(cb, want) {
		t.Errorf("cluster GET diagnose differs from the POST golden diagnose.json")
	}

	bad := "/v1/diagnose?workload=intruder&machine=Haswell&scale=lots"
	ss, sb = do(t, sh, http.MethodGet, bad, "")
	cs, cb = do(t, f.handler, http.MethodGet, bad, "")
	if ss != http.StatusBadRequest || cs != http.StatusBadRequest {
		t.Fatalf("bad query status single=%d cluster=%d, want 400/400", ss, cs)
	}
	if !bytes.Equal(sb, cb) {
		t.Errorf("bad-query error bytes differ.\n--- single\n%s\n--- cluster\n%s", sb, cb)
	}
}

// TestValidationBytesMatchSingleProcess: requests the coordinator cannot
// route (unknown names, malformed JSON, replayed series) delegate to the
// embedded local service, so error bodies — including did-you-mean
// suggestions — are byte-identical to a single process's. No rejected
// request simulates anything, at either tier.
func TestValidationBytesMatchSingleProcess(t *testing.T) {
	var sims atomic.Int64
	counting := service.Config{CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		sims.Add(1)
		return sim.Collect(w, m, cores, scale)
	}}
	f := newFleet(t, 2, counting)
	single, err := service.New(counting)
	if err != nil {
		t.Fatal(err)
	}
	sh := service.NewHandler(single, service.ServerConfig{})
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"unknown workload", "/v1/predict", `{"workload":"intrudr","machine":"Haswell"}`, http.StatusBadRequest},
		{"unknown machine", "/v1/predict", `{"workload":"intruder","machine":"Haswel"}`, http.StatusBadRequest},
		{"malformed json", "/v1/predict", `{"workload":`, http.StatusBadRequest},
		{"unknown field", "/v1/predict", `{"wrkload":"intruder"}`, http.StatusBadRequest},
		{"bad version", "/v1/collect", `{"api_version":"v9","workload":"intruder","machine":"Haswell"}`, http.StatusBadRequest},
		{"bad cell options", "/v1/cell", `{"workload":"intruder","machine":"Haswell","bootstrap":-1}`, http.StatusBadRequest},
		{"cell bootstrap above limit", "/v1/cell", `{"workload":"intruder","machine":"Haswell","bootstrap":400000000}`, http.StatusBadRequest},
		{"predict bootstrap above limit", "/v1/predict", `{"workload":"intruder","machine":"Haswell","scale":0.05,"bootstrap":400000000}`, http.StatusBadRequest},
		{"diagnose unknown workload", "/v1/diagnose", `{"workload":"intrudr","machine":"Haswell"}`, http.StatusBadRequest},
		{"diagnose bad checkpoints", "/v1/diagnose", `{"workload":"intruder","machine":"Haswell","checkpoints":-2}`, http.StatusBadRequest},
		{"collect core listed twice", "/v1/collect", `{"workload":"intruder","machine":"Haswell","cores":"1-4,1-4"}`, http.StatusBadRequest},
		{"curve core listed twice", "/v1/curve", `{"workload":"intruder","machine":"Haswell","cores":"1,3,2-3"}`, http.StatusBadRequest},
		{"predict window beyond machine", "/v1/predict", `{"workload":"intruder","machine":"Haswell","meas_cores":99}`, http.StatusBadRequest},
		{"diagnose window beyond machine", "/v1/diagnose", `{"workload":"intruder","machine":"Haswell","meas_cores":99}`, http.StatusBadRequest},
		{"cell window beyond machine", "/v1/cell", `{"workload":"intruder","machine":"Haswell","meas_cores":99}`, http.StatusBadRequest},
		{"predict scale above limit", "/v1/predict", `{"workload":"intruder","machine":"Haswell","scale":9}`, http.StatusBadRequest},
		{"compared predict scale above limit", "/v1/predict", `{"workload":"intruder","machine":"Haswell","scale":0.05,"data_scale":200,"compare":true}`, http.StatusBadRequest},
		{"sweep scale above limit", "/v1/sweep", `{"workloads":["intruder"],"machines":["Haswell"],"scale":9}`, http.StatusBadRequest},
		{"explore scale above limit", "/v1/explore", `{"workload":"memcached?skew=1.5,skew=2.5","machine":"Haswell","scale":9}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ss, sb := do(t, sh, http.MethodPost, c.path, c.body)
			cs, cb := do(t, f.handler, http.MethodPost, c.path, c.body)
			if ss != c.wantStatus || cs != c.wantStatus {
				t.Fatalf("status single=%d cluster=%d, want %d", ss, cs, c.wantStatus)
			}
			if !bytes.Equal(sb, cb) {
				t.Errorf("error bytes differ.\n--- single\n%s\n--- cluster\n%s", sb, cb)
			}
			if n := sims.Swap(0); n != 0 {
				t.Errorf("a rejected request simulated %d samples", n)
			}
		})
	}
}

// TestSweepWindowBeyondOneMachineMatchesSingleProcess: a cell whose window
// exceeds its machine fails at plan time, on its own, in both tiers: the
// sweep's bytes match, the other machine's cell still predicts, the failing
// cell simulates nothing and no worker is asked for it.
func TestSweepWindowBeyondOneMachineMatchesSingleProcess(t *testing.T) {
	var haswellSims atomic.Int64
	counting := service.Config{CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
		if m.Name == "Haswell" {
			haswellSims.Add(1)
		}
		return sim.Collect(w, m, cores, scale)
	}}
	f := newFleet(t, 2, counting)
	single, err := service.New(counting)
	if err != nil {
		t.Fatal(err)
	}
	sh := service.NewHandler(single, service.ServerConfig{})
	body := `{"workloads":["intruder"],"machines":["Haswell","Xeon20"],"meas_cores":8,"scale":0.05}`
	ss, sb := do(t, sh, http.MethodPost, "/v1/sweep", body)
	if n := haswellSims.Swap(0); n != 0 {
		t.Errorf("the single process simulated %d samples for the Haswell cell, want 0", n)
	}
	cs, cb := do(t, f.handler, http.MethodPost, "/v1/sweep", body)
	if n := haswellSims.Load(); n != 0 {
		t.Errorf("the cluster simulated %d samples for the Haswell cell, want 0", n)
	}
	if n := f.requests(); n != 1 {
		t.Errorf("workers served %d requests, want 1 (the Xeon20 cell)", n)
	}
	if ss != http.StatusOK || cs != http.StatusOK {
		t.Fatalf("status single=%d cluster=%d, want 200", ss, cs)
	}
	if !bytes.Equal(sb, cb) {
		t.Errorf("sweep bytes differ.\n--- single\n%s\n--- cluster\n%s", sb, cb)
	}
	var resp service.SweepResponse
	if err := json.Unmarshal(cb, &resp); err != nil {
		t.Fatal(err)
	}
	const want = `core range "1-8" exceeds the machine's 4 cores`
	if resp.Failures != 1 || len(resp.Cells) != 2 || resp.Cells[0].Error != want || resp.Cells[1].Error != "" {
		t.Errorf("want only the Haswell cell to fail, with %q: %s", want, cb)
	}
}
