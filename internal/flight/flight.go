// Package flight coalesces concurrent requests for one key into one
// execution. It is the single in-flight primitive behind the service's
// sample and fitted-model memos and the cluster coordinator's relay group
// and cell memo.
//
// A Group runs each key's function at most once while it is in flight,
// detached from any single caller's context: callers arriving meanwhile join
// it, and the work is cancelled only when the last of them gives up. A
// failed or abandoned flight leaves the group at once, so the next caller
// starts afresh instead of inheriting an error or a cancellation. What
// happens to a completed flight is the group's capacity: a memo (capacity >
// 0) retains completed values in a bounded LRU, a pure coalescing registry
// (capacity 0) forgets them on completion. A completed flight leaves only
// its value behind: a retained entry holds its key, its value and its place
// in the recency list, and nothing of the flight — no channel, no cancel
// func, and so no reference to the context of the caller that started it.
package flight

import (
	"context"
	"sync"
	"sync/atomic"
)

// call is one key's flight in progress, shared by every caller that joined
// it.
type call[V any] struct {
	// done is closed when fn has returned; val and err are immutable
	// afterwards (happens-before via the close).
	done chan struct{}
	val  V
	err  error
	// waiters and cancel are guarded by the group's mutex.
	waiters int
	cancel  context.CancelFunc
}

// entry is one retained value: its key, its value and its links in the
// group's recency ring.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// Group is a keyed set of flights; build one with New. A Group is safe for
// concurrent use.
type Group[K comparable, V any] struct {
	capacity int

	mu sync.Mutex
	// A key is in flights while its flight runs and in memo once its value is
	// retained, never in both.
	flights map[K]*call[V]
	memo    map[K]*entry[K, V]
	// lru is the sentinel of the ring of retained entries: lru.next is the
	// most recently used, lru.prev the least.
	lru entry[K, V]

	// started counts executions of fn; hits counts calls answered without
	// one, by joining a flight or from a retained value.
	started atomic.Int64
	hits    atomic.Int64
}

// New returns a Group that retains up to capacity entries, evicting the
// least recently used completed value first. In-flight entries count
// towards the bound but are never evicted, so it is exceeded while only they
// remain. Capacity 0 forgets every value as soon as its flight completes.
func New[K comparable, V any](capacity int) *Group[K, V] {
	g := &Group[K, V]{capacity: capacity, flights: map[K]*call[V]{}, memo: map[K]*entry[K, V]{}}
	g.lru.prev, g.lru.next = &g.lru, &g.lru
	return g
}

// Do returns key's value: a retained one at once, otherwise the result of
// the flight in progress or of a new flight running fn. fn's context is
// detached from ctx's cancellation, because one caller leaving must not fail
// the others; it is cancelled when every caller has left. A caller whose ctx
// ends first gets ctx's error. The callers of a failed flight get the value
// fn returned along with its error; neither is retained.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	g.mu.Lock()
	if v, ok := g.lookup(key); ok {
		g.mu.Unlock()
		return v, nil
	}
	c, ok := g.flights[key]
	if ok {
		g.hits.Add(1)
	} else {
		c = g.start(ctx, key, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 && g.flights[key] == c {
			// The last caller abandoned unfinished work: cancel it, and
			// forget it so a later caller starts a fresh flight instead of
			// joining a cancelled one.
			c.cancel()
			delete(g.flights, key)
		}
		g.mu.Unlock()
		var zero V
		return zero, ctx.Err()
	}
}

// Get returns key's retained value, counting a hit and marking it most
// recently used, without starting or joining a flight. Memo hot paths try
// it before Do, so a hit does not pay for building Do's closure.
func (g *Group[K, V]) Get(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lookup(key)
}

// lookup (called under g.mu) is Get.
func (g *Group[K, V]) lookup(key K) (V, bool) {
	e, ok := g.memo[key]
	if !ok {
		var zero V
		return zero, false
	}
	g.hits.Add(1)
	g.unlink(e)
	g.link(e)
	return e.val, true
}

// start (called under g.mu) registers a new flight for key and runs fn in
// its own goroutine. When fn succeeds in a memo, the flight gives way to a
// retained entry.
func (g *Group[K, V]) start(ctx context.Context, key K, fn func(context.Context) (V, error)) *call[V] {
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call[V]{done: make(chan struct{}), cancel: cancel}
	g.flights[key] = c
	g.started.Add(1)
	g.evict()
	go func() {
		v, err := fn(fctx)
		cancel()
		g.mu.Lock()
		c.val, c.err = v, err
		if g.flights[key] == c { // not abandoned meanwhile
			delete(g.flights, key)
			if err == nil && g.capacity > 0 {
				e := &entry[K, V]{key: key, val: v}
				g.memo[key] = e
				g.link(e)
			}
		}
		g.mu.Unlock()
		close(c.done)
	}()
	return c
}

// link (called under g.mu) puts e at the front of the recency ring.
func (g *Group[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &g.lru, g.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink (called under g.mu) takes e out of the recency ring.
func (g *Group[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// evict (called under g.mu) drops least recently used retained values
// while the group holds more than its capacity; flights in progress stay.
func (g *Group[K, V]) evict() {
	for len(g.flights)+len(g.memo) > g.capacity && len(g.memo) > 0 {
		e := g.lru.prev
		g.unlink(e)
		delete(g.memo, e.key)
	}
}

// Stats reports the lifetime counters: flights started, and calls answered
// by joining a flight or from a retained value.
func (g *Group[K, V]) Stats() (started, hits int64) {
	return g.started.Load(), g.hits.Load()
}
