package flight

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

var bg = context.Background()

// waitFor polls cond until it holds, failing the test after a generous
// deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedFlightIsNotJoined is the regression lock for the coordinator
// bug where a request arriving between the last waiter leaving and the
// cancelled work returning joined the dead flight and got "context
// canceled": caller A's flight blocks and A cancels; caller B, asking for
// the same key with a live context, must get a fresh execution.
func TestAbandonedFlightIsNotJoined(t *testing.T) {
	g := New[string, int](0)
	release := make(chan struct{})
	var runs atomic.Int64
	fn := func(ctx context.Context) (int, error) {
		if runs.Add(1) == 1 {
			// A's execution: blocks past its cancellation until released,
			// so the abandoned flight is still running when B arrives.
			<-ctx.Done()
			<-release
			return 0, ctx.Err()
		}
		return 42, nil
	}

	actx, cancel := context.WithCancel(bg)
	aErr := make(chan error, 1)
	go func() {
		_, err := g.Do(actx, "k", fn)
		aErr <- err
	}()
	waitFor(t, "A's flight to start", func() bool { return runs.Load() == 1 })
	cancel()
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("A's error = %v, want context.Canceled", err)
	}

	// Let A's abandoned execution finish shortly: a B that wrongly joined
	// it would then get A's cancellation instead of hanging.
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	v, err := g.Do(bg, "k", fn)
	if err != nil || v != 42 {
		t.Fatalf("B got (%d, %v), want its own fresh result (42, nil)", v, err)
	}
	if started, hits := g.Stats(); started != 2 || hits != 0 {
		t.Errorf("started=%d hits=%d, want 2/0 (B must not join A's abandoned flight)", started, hits)
	}
}

// TestConcurrentCallersShareOneExecution: callers arriving while a flight
// runs join it, and all of them see its value.
func TestConcurrentCallersShareOneExecution(t *testing.T) {
	g := New[string, int](0)
	release := make(chan struct{})
	fn := func(context.Context) (int, error) { <-release; return 7, nil }

	const n = 8
	var wg sync.WaitGroup
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = g.Do(bg, "k", fn)
		}(i)
	}
	waitFor(t, "every caller to join", func() bool {
		started, hits := g.Stats()
		return started+hits == n
	})
	close(release)
	wg.Wait()
	for i, v := range vals {
		if v != 7 {
			t.Errorf("caller %d got %d, want 7", i, v)
		}
	}
	if started, hits := g.Stats(); started != 1 || hits != n-1 {
		t.Errorf("started=%d hits=%d, want 1/%d", started, hits, n-1)
	}
}

// TestOnlyTheLastWaiterCancels: one caller leaving does not cancel work
// another caller still waits for.
func TestOnlyTheLastWaiterCancels(t *testing.T) {
	g := New[string, int](0)
	release := make(chan struct{})
	cancelled := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		select {
		case <-release:
			return 1, nil
		case <-ctx.Done():
			close(cancelled)
			return 0, ctx.Err()
		}
	}

	actx, cancelA := context.WithCancel(bg)
	aDone := make(chan struct{})
	go func() { g.Do(actx, "k", fn); close(aDone) }()
	bctx, cancelB := context.WithCancel(bg)
	bDone := make(chan struct{})
	go func() { g.Do(bctx, "k", fn); close(bDone) }()
	waitFor(t, "B to join", func() bool { _, hits := g.Stats(); return hits == 1 })

	cancelA()
	<-aDone
	select {
	case <-cancelled:
		t.Fatal("the work was cancelled while B still waited for it")
	case <-time.After(20 * time.Millisecond):
	}
	cancelB()
	<-bDone
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("the last waiter left but the work was not cancelled")
	}
	close(release)
}

// TestFailedFlightIsNotRetained: an error reaches the callers of its
// flight, but the next call runs fn again.
func TestFailedFlightIsNotRetained(t *testing.T) {
	g := New[string, int](4)
	var runs atomic.Int64
	fn := func(context.Context) (int, error) {
		if runs.Add(1) == 1 {
			return 0, errors.New("boom")
		}
		return 3, nil
	}
	if _, err := g.Do(bg, "k", fn); err == nil {
		t.Fatal("first call should fail")
	}
	if v, err := g.Do(bg, "k", fn); err != nil || v != 3 {
		t.Fatalf("retry got (%d, %v), want (3, nil)", v, err)
	}
	if v, _ := g.Do(bg, "k", fn); v != 3 || runs.Load() != 2 {
		t.Errorf("retained value %d after %d runs, want 3 after 2", v, runs.Load())
	}
}

// TestRetainsLeastRecentlyUsedFirst: a memo group keeps completed values up
// to its capacity, evicting the least recently used; a capacity-0 group
// forgets every value on completion.
func TestRetainsLeastRecentlyUsedFirst(t *testing.T) {
	g := New[string, string](2)
	var runs atomic.Int64
	fn := func(v string) func(context.Context) (string, error) {
		return func(context.Context) (string, error) { runs.Add(1); return v, nil }
	}
	g.Do(bg, "a", fn("a"))
	g.Do(bg, "b", fn("b"))
	g.Do(bg, "a", fn("a")) // a is now the most recently used
	g.Do(bg, "c", fn("c")) // evicts b
	if runs.Load() != 3 {
		t.Fatalf("%d runs, want 3 (the repeat of a is a hit)", runs.Load())
	}
	for _, k := range []string{"a", "c"} {
		if v, ok := g.Get(k); !ok || v != k {
			t.Errorf("Get(%s) = %q, %v; want the retained value", k, v, ok)
		}
	}
	if _, ok := g.Get("b"); ok {
		t.Error("Get(b) found an evicted value")
	}
	g.Do(bg, "b", fn("b"))
	if runs.Load() != 4 {
		t.Errorf("evicted b answered without a new run")
	}

	z := New[string, string](0)
	z.Do(bg, "a", fn("a"))
	z.Do(bg, "a", fn("a"))
	if started, hits := z.Stats(); started != 2 || hits != 0 {
		t.Errorf("capacity-0 group started=%d hits=%d, want 2/0", started, hits)
	}
	if _, ok := z.Get("a"); ok {
		t.Error("capacity-0 group retained a value")
	}
}

// TestRetainedValueDropsCallerContext: a retained value keeps nothing of
// the flight that computed it, so the context of the caller that started
// the flight, and whatever that context carries, is collectable while the
// value stays.
func TestRetainedValueDropsCallerContext(t *testing.T) {
	type ctxKey struct{}
	g := New[string, int](1)
	held := func() weak.Pointer[[64]byte] {
		payload := new([64]byte)
		ctx := context.WithValue(bg, ctxKey{}, payload)
		if v, err := g.Do(ctx, "k", func(context.Context) (int, error) { return 1, nil }); err != nil || v != 1 {
			t.Fatalf("Do = (%d, %v), want (1, nil)", v, err)
		}
		return weak.Make(payload)
	}()
	// The flight's goroutine may still be on its way out when Do returns,
	// so collect a few times before giving up.
	for i := 0; i < 100 && held.Value() != nil; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if held.Value() != nil {
		t.Error("the retained entry keeps its first caller's context reachable")
	}
	if v, ok := g.Get("k"); !ok || v != 1 {
		t.Errorf("Get(k) = %d, %v; want the retained 1", v, ok)
	}
}
