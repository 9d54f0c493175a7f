// Package pool provides the module's one worker pool: a fixed set of worker
// goroutines draining an index channel. Every fan-out in the module — sample
// collection, per-category fits, bootstrap replicates, sweep and explore
// cells, experiment rows — runs through ForN instead of spawning one
// goroutine per item, which keeps peak goroutine count (and therefore peak
// memory and scheduler pressure) independent of input size, and keeps the
// boundedspawn analyzer's invariant checkable in one place. ForN takes no
// context and no semaphore: a caller that must stop early or share a CPU
// budget checks its context and acquires its semaphore inside fn.
package pool

import (
	"runtime"
	"sync"
)

// ForN calls fn(0) … fn(n-1) from at most workers goroutines and returns
// once every call has finished. workers <= 0 means runtime.GOMAXPROCS(0);
// the pool never exceeds n workers. Indices are handed out in order but may
// complete in any order, so fn must write its result to a per-index slot
// (or otherwise synchronize) rather than append to shared state.
//
// ForN is synchronous — it joins every worker before returning — so
// cancellation belongs inside fn, not in a context parameter here.
//
//estima:allow ctxflow synchronous helper; all workers are joined before return
func ForN(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
