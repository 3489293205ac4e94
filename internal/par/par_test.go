package par

import (
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/snaps/snaps/internal/par/partest"
)

// TestRangeCoversExactlyOnce checks the chunk bounds at sizes below, at and
// above the processor count: contiguous non-empty chunks, at most
// GOMAXPROCS of them, every index covered exactly once; n = 0 does no work.
func TestRangeCoversExactlyOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7} {
		partest.WithProcs(t, procs)
		for _, n := range []int{0, 1, 2, 3, procs - 1, procs, procs + 1, 10*procs + 3, 1000} {
			hits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			Range(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi || (lo == hi && n > 0) {
					t.Errorf("procs=%d n=%d: chunk [%d,%d)", procs, n, lo, hi)
					return
				}
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, c)
				}
			}
			if c := int(chunks.Load()); c > procs || c > max(n, 1) {
				t.Fatalf("procs=%d n=%d: %d chunks", procs, n, c)
			}
		}
	}
}

// TestPullHandsOutEachItemOnce checks the pull helper the same way, plus
// the worker numbering per-worker state is sized by.
func TestPullHandsOutEachItemOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7} {
		partest.WithProcs(t, procs)
		for _, n := range []int{0, 1, procs - 1, procs, procs + 1, 1000} {
			hits := make([]atomic.Int32, n)
			seen := make([]atomic.Int32, Procs(n))
			Pull(n, func(w int, next func() int) {
				seen[w].Add(1)
				for i := next(); i < n; i = next() {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("procs=%d n=%d: item %d handed out %d times", procs, n, i, c)
				}
			}
			for w := range seen {
				if c := seen[w].Load(); c != 1 {
					t.Fatalf("procs=%d n=%d: worker %d started %d times", procs, n, w, c)
				}
			}
		}
	}
}

// TestPanicsAreNotSwallowed pins what a panic inside fn does: inline (one
// processor, or one item) it unwinds into the caller like a plain loop's
// would; on a goroutine nothing recovers it and the process dies with the
// panic message, which a re-exec of this test binary observes.
func TestPanicsAreNotSwallowed(t *testing.T) {
	if os.Getenv("PAR_TEST_CRASH") == "1" {
		partest.WithProcs(t, 4)
		Range(100, func(lo, hi int) {
			if lo == 0 {
				panic("boom in a par.Range goroutine")
			}
		})
		return
	}

	partest.WithProcs(t, 1)
	for name, call := range map[string]func(){
		"Range": func() { Range(10, func(lo, hi int) { panic("boom") }) },
		"Pull":  func() { Pull(10, func(int, func() int) { panic("boom") }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s swallowed an inline panic", name)
				}
			}()
			call()
		}()
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestPanicsAreNotSwallowed$")
	cmd.Env = append(os.Environ(), "PAR_TEST_CRASH=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived a panic in a Range goroutine:\n%s", out)
	}
	if !strings.Contains(string(out), "boom in a par.Range goroutine") {
		t.Fatalf("child died without the panic message:\n%s", out)
	}
}
