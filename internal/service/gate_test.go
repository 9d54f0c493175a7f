package service

import (
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
	"repro/internal/sim"
)

// blockingService returns a Service whose first measurement parks until
// release is closed, plus a channel that fires once the block is reached —
// the scaffolding every saturation test needs.
func blockingService(t *testing.T) (svc *Service, started chan struct{}, release chan struct{}) {
	t.Helper()
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	svc = newTestService(t, Config{
		CollectSample: func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error) {
			once.Do(func() { close(started) })
			<-release
			return sim.Collect(w, m, cores, scale)
		},
	})
	return svc, started, release
}

const predictBody = `{"workload":"intruder","machine":"Haswell","scale":0.05}`

// TestSaturatedEndpointRejectsWith429 pins the admission contract: with the
// queue disabled, the request beyond the in-flight bound is answered 429
// with a Retry-After header immediately — it does not hang until its
// context dies, which is what the old blocking limiter did.
func TestSaturatedEndpointRejectsWith429(t *testing.T) {
	svc, started, release := blockingService(t)
	h := NewHandler(svc, ServerConfig{MaxInFlight: 1, MaxQueue: -1})

	firstDone := make(chan int)
	go func() {
		status, _ := do(t, h, http.MethodPost, "/v1/predict", predictBody)
		firstDone <- status
	}()
	<-started // the slot is now held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated predict status = %d, want 429 (%s)", rec.Code, rec.Body.Bytes())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("429 Retry-After = %q, want \"2\" (one second floor + one capacity of load)", ra)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("429 body is not an error JSON: %s", rec.Body.Bytes())
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", status)
	}
}

// TestProbesNeverBlockOnGate: /healthz and /readyz answer while every slot
// is held and the queue is full — liveness must be observable exactly when
// the server is busiest.
func TestProbesNeverBlockOnGate(t *testing.T) {
	svc, started, release := blockingService(t)
	defer close(release)
	h := NewHandler(svc, ServerConfig{MaxInFlight: 1, MaxQueue: -1})

	go do(t, h, http.MethodPost, "/v1/predict", predictBody)
	<-started

	status, body := do(t, h, http.MethodGet, "/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("saturated /healthz status = %d (%s)", status, body)
	}
	var health struct {
		InFlight int `json:"in_flight"`
		Capacity int `json:"capacity"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.InFlight != 1 || health.Capacity != 1 {
		t.Errorf("healthz reports in_flight=%d capacity=%d, want 1/1", health.InFlight, health.Capacity)
	}

	status, body = do(t, h, http.MethodGet, "/readyz", "")
	if status != http.StatusOK {
		t.Fatalf("saturated /readyz status = %d (%s)", status, body)
	}
}

// TestReadyzReportsDepthsAndRejections: the per-endpoint gauges surface a
// held slot and count 429s, and Mode names the process role.
func TestReadyzReportsDepthsAndRejections(t *testing.T) {
	svc, started, release := blockingService(t)
	h := NewHandler(svc, ServerConfig{MaxInFlight: 1, MaxQueue: -1, Mode: "worker"})

	go do(t, h, http.MethodPost, "/v1/predict", predictBody)
	<-started
	if status, _ := do(t, h, http.MethodPost, "/v1/predict", predictBody); status != http.StatusTooManyRequests {
		t.Fatalf("second predict = %d, want 429", status)
	}

	_, body := do(t, h, http.MethodGet, "/readyz", "")
	var ready ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Mode != "worker" || ready.Status != "ok" || ready.Capacity != 1 {
		t.Errorf("readyz mode=%q status=%q capacity=%d, want worker/ok/1", ready.Mode, ready.Status, ready.Capacity)
	}
	var predict *EndpointDepth
	for i := range ready.Queue {
		if ready.Queue[i].Endpoint == "predict" {
			predict = &ready.Queue[i]
		}
	}
	if predict == nil {
		t.Fatalf("readyz queue %v has no predict endpoint", ready.Queue)
	}
	if predict.InFlight != 1 || predict.Rejected != 1 {
		t.Errorf("predict gauge = %+v, want in_flight=1 rejected=1", *predict)
	}
	close(release)
}

// TestQueuedRequestWaitsThenRuns: with queue room, a request beyond the
// bound waits for the slot instead of being rejected, and a queued request
// whose client gives up answers 503.
func TestQueuedRequestWaitsThenRuns(t *testing.T) {
	svc, started, release := blockingService(t)
	h := NewHandler(svc, ServerConfig{MaxInFlight: 1, MaxQueue: 1})

	firstDone := make(chan int)
	go func() {
		status, _ := do(t, h, http.MethodPost, "/v1/predict", predictBody)
		firstDone <- status
	}()
	<-started

	// Occupy the single queue ticket with a request that will be abandoned.
	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody)).WithContext(ctx)
		h.ServeHTTP(rec, req)
		queuedDone <- rec.Code
	}()
	// A third arrival overflows the queue: immediate 429.
	waitForQueued(t, h)
	if status, _ := do(t, h, http.MethodPost, "/v1/predict", predictBody); status != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d, want 429", status)
	}
	cancel()
	if status := <-queuedDone; status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled-while-queued request = %d, want 503", status)
	}
	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", status)
	}
}

// TestRetryAfterScalesWithLoad pins the 429 hint contract: Retry-After is
// one polite second plus the backlog (executing + queued) in multiples of
// capacity, capped at maxRetryAfterSeconds — never the old hard-coded "1".
// Coordinators honor the hint verbatim, so its shape is API.
func TestRetryAfterScalesWithLoad(t *testing.T) {
	svc, started, release := blockingService(t)
	h := NewHandler(svc, ServerConfig{MaxInFlight: 1, MaxQueue: 1})

	firstDone := make(chan int)
	go func() {
		status, _ := do(t, h, http.MethodPost, "/v1/predict", predictBody)
		firstDone <- status
	}()
	<-started // slot held: load = 1 capacity

	// Park a second request in the queue: load = 2 capacities.
	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan struct{})
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody)).WithContext(ctx)
		h.ServeHTTP(rec, req)
		close(queuedDone)
	}()
	waitForQueued(t, h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After with 1 in flight + 1 queued = %q, want \"3\"", ra)
	}

	cancel()
	<-queuedDone
	close(release)
	<-firstDone
}

// TestRetryAfterIsCapped: a gate cannot ask clients to wait forever — the
// hint tops out at maxRetryAfterSeconds no matter the backlog.
func TestRetryAfterIsCapped(t *testing.T) {
	g := newGate(1, -1)
	g.inFlight.Store(100)
	if got := g.retryAfter(); got != "8" {
		t.Errorf("retryAfter under 100x load = %q, want the %d cap", got, maxRetryAfterSeconds)
	}
	if got := newGate(1, -1).retryAfter(); got != "1" {
		t.Errorf("idle retryAfter = %q, want \"1\"", got)
	}
}

// waitForQueued polls /healthz until one request reports queued.
func waitForQueued(t *testing.T, h http.Handler) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		_, body := do(t, h, http.MethodGet, "/healthz", "")
		var health struct {
			Queued int `json:"queued"`
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		if health.Queued >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("request never reached the queue")
}
