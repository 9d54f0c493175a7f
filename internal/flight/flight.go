// Package flight coalesces concurrent requests for one key into one
// execution. It is the single in-flight primitive behind the service's
// series and fitted-model memos and the cluster coordinator's relay and cell
// flights.
//
// A Group runs each key's function at most once while it is in flight,
// detached from any single caller's context: callers arriving meanwhile join
// it, and the work is cancelled only when the last of them gives up. A
// failed or abandoned flight leaves the group at once, so the next caller
// starts afresh instead of inheriting an error or a cancellation. What
// happens to a completed flight is the group's capacity: a memo (capacity >
// 0) retains completed values in a bounded LRU, a pure coalescing registry
// (capacity 0) forgets them on completion.
package flight

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// call is one key's execution, shared by every caller that joined it.
type call[K comparable, V any] struct {
	key K
	// done is closed when fn has returned; val and err are immutable
	// afterwards (happens-before via the close, or via the group's mutex for
	// retained entries).
	done chan struct{}
	val  V
	err  error
	// waiters, cancel and elem are guarded by the group's mutex. elem is the
	// entry's place in the recency list: non-nil exactly while a completed
	// value is retained.
	waiters int
	cancel  context.CancelFunc
	elem    *list.Element
}

// Group is a keyed set of flights; build one with New. A Group is safe for
// concurrent use.
type Group[K comparable, V any] struct {
	capacity int

	mu  sync.Mutex
	m   map[K]*call[K, V]
	lru list.List // retained entries, most recently used first

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
	return &Group[K, V]{capacity: capacity, m: map[K]*call[K, V]{}}
}

// Do returns key's value: a retained one at once, otherwise the result of
// the flight in progress or of a new flight running fn. fn's context is
// detached from ctx's cancellation, because one caller leaving must not fail
// the others; it is cancelled when every caller has left. A caller whose ctx
// ends first gets ctx's error.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	if v, ok := g.Get(key); ok {
		return v, nil
	}
	g.mu.Lock()
	c, ok := g.m[key]
	if ok {
		g.hits.Add(1) // joined; possibly one that completed since Get
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
		if c.waiters == 0 && c.elem == nil && g.m[key] == c {
			// The last caller abandoned unfinished work: cancel it, and
			// forget it so a later caller starts a fresh flight instead of
			// joining a cancelled one.
			c.cancel()
			delete(g.m, key)
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
	if c, ok := g.m[key]; ok && c.elem != nil {
		g.hits.Add(1)
		g.lru.MoveToFront(c.elem)
		return c.val, true
	}
	var zero V
	return zero, false
}

// start (called under g.mu) registers a new flight for key and runs fn in
// its own goroutine.
func (g *Group[K, V]) start(ctx context.Context, key K, fn func(context.Context) (V, error)) *call[K, V] {
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call[K, V]{key: key, done: make(chan struct{}), cancel: cancel}
	g.m[key] = c
	g.started.Add(1)
	g.evict()
	go func() {
		v, err := fn(fctx)
		cancel()
		g.mu.Lock()
		c.val, c.err = v, err
		if g.m[key] == c { // not abandoned meanwhile
			if err != nil || g.capacity == 0 {
				delete(g.m, key)
			} else {
				c.elem = g.lru.PushFront(c)
			}
		}
		g.mu.Unlock()
		close(c.done)
	}()
	return c
}

// evict (called under g.mu) drops least recently used retained values
// while the group holds more than its capacity.
func (g *Group[K, V]) evict() {
	for len(g.m) > g.capacity {
		back := g.lru.Back()
		if back == nil {
			return // only flights in progress remain
		}
		delete(g.m, g.lru.Remove(back).(*call[K, V]).key)
	}
}

// Stats reports the lifetime counters: flights started, and calls answered
// by joining a flight or from a retained value.
func (g *Group[K, V]) Stats() (started, hits int64) {
	return g.started.Load(), g.hits.Load()
}
