// Package par is the one parallelism policy of the code base: every
// data-parallel loop runs on at most runtime.GOMAXPROCS(0) goroutines, and
// no caller can set another degree. Both helpers return once every goroutine
// they started has finished and run inline when one goroutine is enough. A
// panic in fn ends the process as in a plain loop: Done is not deferred, so
// the caller never runs on (or exits cleanly) past a panicking goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the number of goroutines Range and Pull use for n items: never
// fewer than one, so a caller may size per-worker state by it.
func Procs(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// Range splits [0,n) into at most Procs(n) contiguous chunks of equal size
// (the last may be shorter) and runs fn on each concurrently. The chunk
// bounds depend on GOMAXPROCS, so fn's result must not depend on them.
func Range(n int, fn func(lo, hi int)) {
	procs := Procs(n)
	if procs == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + procs - 1) / procs
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			fn(lo, hi)
			wg.Done()
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// Pull runs worker once on each of Procs(n) goroutines, numbered w in
// [0,Procs(n)). next hands out the items 0..n-1, each exactly once across
// all workers, and then values >= n; a worker loops
//
//	for i := next(); i < n; i = next() { ... }
//
// For items of uneven cost, where Range's static split would leave
// goroutines idle behind the one holding the expensive chunk.
func Pull(n int, worker func(w int, next func() int)) {
	var counter atomic.Int64
	next := func() int { return int(counter.Add(1)) - 1 }
	procs := Procs(n)
	if procs == 1 {
		worker(0, next)
		return
	}
	var wg sync.WaitGroup
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go func(w int) {
			worker(w, next)
			wg.Done()
		}(w)
	}
	wg.Wait()
}
