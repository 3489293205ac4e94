package er

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
)

// canonicalClusters renders a clustering as a canonical string: record ids
// sorted within each cluster, clusters sorted by their first id, singletons
// excluded (they carry no linkage decision).
func canonicalClusters(cl [][]model.RecordID) string {
	var parts []string
	for _, c := range cl {
		if len(c) < 2 {
			continue
		}
		ids := append([]model.RecordID(nil), c...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var sb strings.Builder
		for i, id := range ids {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", id)
		}
		parts = append(parts, sb.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// TestRunDeterministic is the golden determinism guard: er.Run on the same
// seeded data set must produce the identical cluster set every time, even
// though blocking and dependency-graph construction fan work out over
// parallel goroutines (par.Range). A nondeterministic merge
// order would silently change linkage results between runs — and make the
// live ingestion path's restore-and-extend cycle diverge from a fresh
// resolve.
func TestRunDeterministic(t *testing.T) {
	cfg := dataset.IOS().Scaled(0.04)
	run := func() string {
		p := dataset.Generate(cfg)
		pr := Run(p.Dataset, depgraph.DefaultConfig(), DefaultConfig())
		return canonicalClusters(pr.Result.Store.Clusters())
	}
	first := run()
	if first == "" {
		t.Fatal("no non-singleton clusters resolved; scale too small for the guard to bite")
	}
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d produced a different cluster set (parallel stages are nondeterministic)\nfirst run:\n%s\nrun %d:\n%s",
				i+2, head(first, 20), i+2, head(again, 20))
		}
	}
}

// TestTotalIsWallClock pins what PipelineResult.Total adds up: parts of the
// run that do not overlap, so never more than the run took. The
// component-partitioned resolver's phase timings are sums over components
// resolved concurrently and carry no such bound, which is why Total counts
// Resolve and not them.
func TestTotalIsWallClock(t *testing.T) {
	d := dataset.Generate(dataset.IOS().Scaled(0.04)).Dataset
	for _, procs := range []int{1, 4} {
		partest.WithProcs(t, procs)
		t0 := time.Now()
		pr := Run(d, depgraph.DefaultConfig(), DefaultConfig())
		wall := time.Since(t0)
		if pr.Resolve <= 0 || pr.Total() != pr.Blocking+pr.GenAtomic+pr.GenRelational+pr.Resolve {
			t.Fatalf("procs=%d: Total %v is not blocking %v + graph %v + resolve %v",
				procs, pr.Total(), pr.Blocking, pr.GenAtomic+pr.GenRelational, pr.Resolve)
		}
		if pr.Total() > wall {
			t.Fatalf("procs=%d: Total %v exceeds the run's wall clock %v", procs, pr.Total(), wall)
		}
	}
}

// TestResolveParallelGoldenEquivalence locks the component-partitioned
// parallel resolver to the serial one: on the same data set, GOMAXPROCS 1
// (the serial resolver) and the run's own GOMAXPROCS (plus a fixed 4 so the
// parallel path runs even on single-CPU hosts) must produce the identical
// cluster set. Entity enumeration order is allowed to differ — cluster
// contents are not.
func TestResolveParallelGoldenEquivalence(t *testing.T) {
	cfg := dataset.IOS().Scaled(0.04)
	p := dataset.Generate(cfg)
	ambient := runtime.GOMAXPROCS(0)
	run := func(workers int) (string, *Result) {
		partest.WithProcs(t, workers)
		d := p.Dataset.Clone()
		pr := Run(d, depgraph.DefaultConfig(), DefaultConfig())
		return canonicalClusters(pr.Result.Store.Clusters()), pr.Result
	}
	serial, sres := run(1)
	if serial == "" {
		t.Fatal("no non-singleton clusters resolved; scale too small for the guard to bite")
	}
	for _, w := range []int{ambient, 4} {
		par, pres := run(w)
		if par != serial {
			t.Fatalf("workers=%d cluster set differs from serial\nserial:\n%s\nworkers=%d:\n%s",
				w, head(serial, 20), w, head(par, 20))
		}
		if w == 4 && pres.MergedNodes != sres.MergedNodes {
			t.Fatalf("workers=4 merged %d nodes, serial merged %d", pres.MergedNodes, sres.MergedNodes)
		}
	}
}

// TestExtendParallelGoldenEquivalence covers the ingest path: restoring a
// previous clustering and extending it with new records must yield the same
// clusters whether the resolve over the extension graph runs serially or
// component-parallel. This exercises seeding pre-existing entities into
// component stores.
func TestExtendParallelGoldenEquivalence(t *testing.T) {
	cfg := dataset.IOS().Scaled(0.04)
	p := dataset.Generate(cfg)
	base := Run(p.Dataset, depgraph.DefaultConfig(), DefaultConfig())
	clusters := base.Result.Store.Clusters()

	// Split off the final certificate's records as the "new" batch by
	// resolving a clone and re-extending: simply re-run Extend over the
	// full set with the restored clusters and an arbitrary cut point.
	firstNew := model.RecordID(len(p.Dataset.Records) * 9 / 10)
	run := func(workers int) string {
		partest.WithProcs(t, workers)
		d := p.Dataset.Clone()
		st := restoreForTest(d, clusters, firstNew)
		Extend(d, st, firstNew, depgraph.DefaultConfig(), DefaultConfig())
		return canonicalClusters(st.Clusters())
	}
	serial := run(1)
	if par := run(4); par != serial {
		t.Fatalf("parallel Extend cluster set differs from serial\nserial:\n%s\nparallel:\n%s",
			head(serial, 20), head(par, 20))
	}
}

// restoreForTest rebuilds an EntityStore holding only the clusters made
// entirely of records below firstNew, as the ingest flush does when it
// restores the previous build's clustering before extending.
func restoreForTest(d *model.Dataset, clusters [][]model.RecordID, firstNew model.RecordID) *EntityStore {
	st := NewEntityStore(d)
	for _, c := range clusters {
		old := true
		for _, r := range c {
			if r >= firstNew {
				old = false
				break
			}
		}
		if !old {
			continue
		}
		for i := 1; i < len(c); i++ {
			for j := 0; j < i; j++ {
				st.Link(c[j], c[i])
			}
		}
	}
	return st
}

// head returns the first n lines of s, for readable failure output.
func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = append(lines[:n], "...")
	}
	return strings.Join(lines, "\n")
}
