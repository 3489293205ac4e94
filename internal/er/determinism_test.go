package er

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/blocking"
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
// resolver's phase timings are sums over components, resolved concurrently
// above one proc, and carry no such bound, which is why Total counts
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

// ResolveSerial is the reference Resolve is tested against: the graph run
// builds over d under lcfg, blocking the pairs from firstNew on, resolved
// by resolveGroups over every group on one store (prior's when given, as
// Extend passes it), with no partition and no renumbering. Exported for
// the er_test package.
func ResolveSerial(d *model.Dataset, lcfg blocking.LSHConfig, prior *EntityStore, firstNew model.RecordID) *Result {
	g, _ := depgraph.BuildStream(d, depgraph.DefaultConfig(), func(emit func([]blocking.Candidate)) {
		blocking.NewLSH(lcfg).PairsChunkedFrom(d, d.RecordIDs(), int(firstNew), emit)
	})
	r := NewResolver(g, DefaultConfig())
	if prior != nil {
		prior.Grow()
		r.store = prior
	}
	groups := make([]int32, len(g.Groups))
	for i := range groups {
		groups[i] = int32(i)
	}
	res := &Result{Store: r.store}
	r.resolveGroups(res, groups)
	return res
}

// TestResolveParallelGoldenEquivalence locks the component-partitioned
// resolver to the serial reference: at GOMAXPROCS 1, the run's own and 4,
// Run must produce ResolveSerial's cluster set and merge as many nodes.
// Entity enumeration order may differ from the reference's; cluster
// contents may not.
func TestResolveParallelGoldenEquivalence(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.04))
	ref := ResolveSerial(p.Dataset.Clone(), blocking.DefaultLSHConfig(), nil, 0)
	want := canonicalClusters(ref.Store.Clusters())
	if want == "" {
		t.Fatal("no non-singleton clusters resolved; scale too small for the guard to bite")
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0), 4} {
		partest.WithProcs(t, procs)
		pr := Run(p.Dataset.Clone(), depgraph.DefaultConfig(), DefaultConfig())
		if got := canonicalClusters(pr.Result.Store.Clusters()); got != want {
			t.Fatalf("procs=%d cluster set differs from the serial reference\nreference:\n%s\nprocs=%d:\n%s",
				procs, head(want, 20), procs, head(got, 20))
		}
		if pr.Result.MergedNodes != ref.MergedNodes {
			t.Fatalf("procs=%d merged %d nodes, the serial reference %d", procs, pr.Result.MergedNodes, ref.MergedNodes)
		}
	}
}

// TestExtendParallelGoldenEquivalence covers the ingest path: restoring a
// previous clustering and extending it with new records must yield the
// serial reference's clusters at GOMAXPROCS 1 and 4. This exercises
// seeding pre-existing entities into component stores.
func TestExtendParallelGoldenEquivalence(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.04))
	clusters := Run(p.Dataset, depgraph.DefaultConfig(), DefaultConfig()).Result.Store.Clusters()

	// Treat the last tenth of the records as the new batch: restore the
	// clusters made only of earlier records and extend by the rest.
	firstNew := model.RecordID(len(p.Dataset.Records) * 9 / 10)
	d := p.Dataset.Clone()
	want := canonicalClusters(ResolveSerial(d, blocking.DefaultLSHConfig(), restoreForTest(d, clusters, firstNew), firstNew).Store.Clusters())
	for _, procs := range []int{1, 4} {
		partest.WithProcs(t, procs)
		d := p.Dataset.Clone()
		st := restoreForTest(d, clusters, firstNew)
		Extend(d, st, firstNew, depgraph.DefaultConfig(), DefaultConfig())
		if got := canonicalClusters(st.Clusters()); got != want {
			t.Fatalf("procs=%d Extend cluster set differs from the serial reference\nreference:\n%s\nprocs=%d:\n%s",
				procs, head(want, 20), procs, head(got, 20))
		}
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
