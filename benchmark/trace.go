package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory while it is on. A nil or switched-off
// tracer records nothing and costs one atomic load per boundary, so the
// same servers serve the untraced and the traced quarters of a run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	// current is the server span of the request in flight, for layers whose
	// entry points carry no context (the simulator's CollectSample hook).
	// Only the single-client workloads rely on it.
	current atomic.Int64
	curReq  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// openSpan is a started span; finish records it.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span, or returns nil when tracing is off.
func (t *tracer) begin(name string, parent, req int64) *openSpan {
	if !t.active() {
		return nil
	}
	return &openSpan{t: t, s: span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

// finish ends the span and keeps it. Safe on a nil span.
func (o *openSpan) finish() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// id returns the span's ID (0 for a nil span, i.e. "no parent").
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Request identity crosses HTTP hops in these headers; the program ignores
// them, so traced responses stay byte-identical.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

type spanKey struct{}

// spanRef is the span a context carries across a hop.
type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, o *openSpan) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{o.s.ID, o.s.Req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

func setSpanHeaders(h http.Header, ref spanRef) {
	h.Set(hdrReq, strconv.FormatInt(ref.req, 10))
	h.Set(hdrSpan, strconv.FormatInt(ref.id, 10))
}

func spanHeaders(h http.Header) spanRef {
	req, _ := strconv.ParseInt(h.Get(hdrReq), 10, 64)
	id, _ := strconv.ParseInt(h.Get(hdrSpan), 10, 64)
	return spanRef{id: id, req: req}
}

// middleware wraps a handler in a server-side span named name, parented by
// the caller's span headers. With current set it also publishes the span
// for context-free hooks.
func (t *tracer) middleware(name string, current bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		parent := spanHeaders(r.Header)
		sp := t.begin(name, parent.id, parent.req)
		if current {
			t.current.Store(sp.id())
			t.curReq.Store(parent.req)
		}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
		if current {
			t.current.Store(0)
		}
		sp.finish()
	})
}

// roundTripper records a "relay" span around every outgoing request whose
// context carries a span, and forwards the identity to the next hop.
type roundTripper struct {
	t    *tracer
	next http.RoundTripper
}

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := spanFrom(r.Context())
	if !rt.t.active() || ref.req == 0 {
		return rt.next.RoundTrip(r)
	}
	sp := rt.t.begin("relay", ref.id, ref.req)
	r = r.Clone(r.Context())
	setSpanHeaders(r.Header, spanRef{id: sp.id(), req: ref.req})
	resp, err := rt.next.RoundTrip(r)
	sp.finish()
	return resp, err
}

// spanStat aggregates every span of one name: how many, their total
// duration, and their self time — duration minus the part of the span's
// interval its child spans cover (overlapping children count once).
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes the per-name aggregate over spans.
func selfTimes(spans []span) []spanStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*spanStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of the children's
// intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write stores every recorded span plus the self-time summary as one JSON
// document and returns the summary.
func (t *tracer) write(path string) ([]spanStat, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	sum := selfTimes(spans)
	data, err := json.Marshal(struct {
		Summary []spanStat `json:"summary"`
		Spans   []span     `json:"spans"`
	}{sum, spans})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return sum, os.WriteFile(path, data, 0o644)
}
