package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeHTTPBody replicates writeJSON's encoding (two-space indent plus a
// trailing newline), so in-process responses can be compared byte for byte
// against HTTP bodies.
func encodeHTTPBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeNDJSONLines replicates the streaming encoder: one compact JSON
// document per line.
func encodeNDJSONLines(t *testing.T, lines []SweepStreamLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkGolden compares got against testdata/<file>, rewriting it under
// -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body differs from golden %s.\n--- want\n%s\n--- got\n%s", file, want, got)
	}
}

// conformanceCase is one request of testdata/conformance.json, the case
// list the service and cluster suites both replay, in file order: later
// cases' cache_hit flags depend on what earlier ones warmed. (The explore
// region deliberately avoids cells earlier cases warm, so its golden does
// not depend on case order.)
type conformanceCase struct {
	Golden, Method, Path string
	Body                 json.RawMessage
}

// loadConformanceCases reads the shared case list.
func loadConformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "conformance.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []conformanceCase
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

// inProcess adapts one typed Service method to a conformance case's body.
func inProcess[Req, Resp any](fn func(context.Context, Req) (*Resp, error)) func(context.Context, url.Values, []byte) (any, error) {
	return func(ctx context.Context, _ url.Values, body []byte) (any, error) {
		var req Req
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return fn(ctx, req)
	}
}

// TestServiceConformance is the anti-drift suite: every case of the shared
// list is executed twice — once through the in-process service.New path,
// once over HTTP — and the two must answer byte-identical JSON bodies,
// which are also pinned as goldens. Both paths share one Service, so
// memoized state (series hit flags are recorded at collection, fitted
// models at first computation) answers identically regardless of which path
// runs first. Every route of the table must have a case, so a new endpoint
// is covered at every tier (the cluster suite replays the same list).
func TestServiceConformance(t *testing.T) {
	svc := newTestService(t, Config{})
	h := NewHandler(svc, ServerConfig{})

	registry := func(project func(*ListResponse) any) func(context.Context, url.Values, []byte) (any, error) {
		return func(ctx context.Context, q url.Values, _ []byte) (any, error) {
			resp, err := svc.List(ctx, ListRequest{Verbose: q.Get("schemas") == "1"})
			if err != nil {
				return nil, err
			}
			return project(resp), nil
		}
	}
	calls := map[string]func(ctx context.Context, q url.Values, body []byte) (any, error){
		"POST /v1/predict":  inProcess(svc.Predict),
		"POST /v1/sweep":    inProcess(svc.Sweep),
		"POST /v1/collect":  inProcess(svc.Collect),
		"POST /v1/curve":    inProcess(svc.Curve),
		"POST /v1/cell":     inProcess(svc.Cell),
		"POST /v1/explore":  inProcess(svc.Explore),
		"POST /v1/diagnose": inProcess(svc.Diagnose),
		"GET /v1/diagnose": func(ctx context.Context, q url.Values, _ []byte) (any, error) {
			req, err := diagnoseRequestFromQuery(q)
			if err != nil {
				return nil, err
			}
			return svc.Diagnose(ctx, req)
		},
		"GET /v1/workloads": registry(func(l *ListResponse) any {
			return WorkloadsResponse{APIVersion: l.APIVersion, Workloads: l.Workloads, Families: l.WorkloadFamilies}
		}),
		"GET /v1/machines": registry(func(l *ListResponse) any {
			return MachinesResponse{APIVersion: l.APIVersion, Machines: l.Machines, Families: l.MachineFamilies}
		}),
	}

	cases := loadConformanceCases(t)
	covered := map[string]bool{}
	for _, c := range cases {
		path, _, _ := strings.Cut(c.Path, "?")
		covered[c.Method+" "+path] = true
	}
	for _, rt := range routes {
		pattern := rt.method + " " + rt.path
		if !covered[pattern] {
			t.Errorf("route %s has no case in testdata/conformance.json", pattern)
		}
		if calls[pattern] == nil {
			t.Errorf("route %s has no in-process call in this suite", pattern)
		}
	}

	for _, c := range cases {
		t.Run(c.Golden, func(t *testing.T) {
			u, err := url.Parse(c.Path)
			if err != nil {
				t.Fatal(err)
			}
			call := calls[c.Method+" "+u.Path]
			if call == nil {
				t.Fatalf("no route %s %s", c.Method, u.Path)
			}
			inProc, err := call(bg, u.Query(), c.Body)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeHTTPBody(t, inProc)

			status, httpBody := do(t, h, c.Method, c.Path, string(c.Body))
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, httpBody)
			}
			if !bytes.Equal(httpBody, want) {
				t.Errorf("HTTP body differs from the in-process path.\n--- in-process\n%s\n--- http\n%s", want, httpBody)
			}
			checkGolden(t, c.Golden, httpBody)
		})
	}
}

// TestSchemasParamFalsyValues pins that explicit falsy ?schemas= values
// keep the compact body: ?schemas=0 and ?schemas=false answer exactly what
// the bare GET answers.
func TestSchemasParamFalsyValues(t *testing.T) {
	h := newTestHandler(t, ServerConfig{})
	for _, path := range []string{"/v1/workloads", "/v1/machines"} {
		_, bare := do(t, h, http.MethodGet, path, "")
		for _, q := range []string{"?schemas=0", "?schemas=false"} {
			_, got := do(t, h, http.MethodGet, path+q, "")
			if !bytes.Equal(got, bare) {
				t.Errorf("GET %s%s differs from the bare GET", path, q)
			}
		}
		_, verbose := do(t, h, http.MethodGet, path+"?schemas=1", "")
		if bytes.Equal(verbose, bare) {
			t.Errorf("GET %s?schemas=1 did not add schemas", path)
		}
	}
}

// TestSweepStreamConformance extends the suite to the NDJSON endpoint: the
// in-process SweepStream lines and the HTTP ?stream=ndjson body must be
// byte-identical, in plan order, with the summary as the final record.
func TestSweepStreamConformance(t *testing.T) {
	svc := newTestService(t, Config{})
	h := NewHandler(svc, ServerConfig{})
	body := `{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05}`

	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	var lines []SweepStreamLine
	sum, err := svc.SweepStream(bg, req, func(c SweepCell) error {
		cell := c
		lines = append(lines, SweepStreamLine{Cell: &cell})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, SweepStreamLine{Summary: sum})
	want := encodeNDJSONLines(t, lines)

	status, httpBody := do(t, h, http.MethodPost, "/v1/sweep?stream=ndjson", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, httpBody)
	}
	if !bytes.Equal(httpBody, want) {
		t.Errorf("streamed HTTP body differs from the in-process stream.\n--- in-process\n%s\n--- http\n%s", want, httpBody)
	}
	checkGolden(t, "sweep_stream.ndjson", httpBody)
}

// TestSweepStreamHTTPValidation pins the streaming endpoint's error
// behaviour: validation failures answer a status code (the header is
// written lazily), and unknown stream formats are rejected.
func TestSweepStreamHTTPValidation(t *testing.T) {
	h := newTestHandler(t, ServerConfig{})
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"unknown stream format", "/v1/sweep?stream=csv", `{}`, http.StatusBadRequest},
		{"bad json", "/v1/sweep?stream=ndjson", `{`, http.StatusBadRequest},
		{"unknown workload", "/v1/sweep?stream=ndjson", `{"workloads":["nope"]}`, http.StatusBadRequest},
		{"bad version", "/v1/sweep?stream=ndjson", `{"api_version":"v9"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			status, body := do(t, h, http.MethodPost, c.path, c.body)
			if status != c.status {
				t.Errorf("status = %d, want %d (%s)", status, c.status, body)
			}
			if !json.Valid(bytes.TrimSpace(body)) {
				t.Errorf("error body is not JSON: %s", body)
			}
		})
	}
}
