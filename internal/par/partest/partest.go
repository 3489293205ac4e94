// Package partest lets a test pin the degree of parallelism package par
// runs at: the process-wide GOMAXPROCS is the only setting there is.
package partest

import (
	"runtime"
	"testing"
)

// WithProcs sets GOMAXPROCS to n until the test, subtest or benchmark ends;
// n = 0 keeps the run's own setting. The setting is process-wide, so a test
// using it must not call t.Parallel.
func WithProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
