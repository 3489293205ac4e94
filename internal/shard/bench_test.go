package shard_test

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
)

// tailQueries returns every indexed pair — the most frequent first name and
// surname of an entity, once per distinct pair — in one seeded shuffled
// order, and beside each the same pair with a location of an entity that
// carries it, where one does.
func tailQueries(g *pedigree.Graph) (names, located []query.Query) {
	loc := map[query.Query]string{}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		q := query.Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]}
		if l, seen := loc[q]; !seen || l == "" {
			loc[q] = ""
			if len(n.Locations) > 0 {
				loc[q] = n.Locations[0]
			}
		}
	}
	for q := range loc {
		names = append(names, q)
	}
	slices.SortFunc(names, func(x, y query.Query) int {
		return cmp.Or(cmp.Compare(x.FirstName, y.FirstName), cmp.Compare(x.Surname, y.Surname))
	})
	rand.New(rand.NewSource(1)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for _, q := range names {
		if q.Location = loc[q]; q.Location != "" {
			located = append(located, q)
		}
	}
	return names, located
}

// BenchmarkSearchTail measures the request path of a tail search, the
// benchmark's search_p50_ms without the server around it: the serve tier's
// DS-4k graph (seed 1, ScaleLSHConfig) at two shards with the result cache
// off, every indexed pair in turn, each seen once before the clock starts so
// that every lookup of S is a hit. location gives each pair a location of
// one of its entities, which every candidate is scored against.
// candidates/op is how many entities the shards' walks scored per search
// and entries/op how many similarity-list entries they read, summed from
// the accumulate spans of that first pass, traced, so that neither depends
// on b.N: the work the walk's stop leaves, which the data and the answer
// set.
func BenchmarkSearchTail(b *testing.B) {
	cfg := dataset.ScaleTier(4000)
	cfg.Seed = 1
	d := dataset.GenerateScale(cfg).Dataset
	pr := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	c := shard.Partition(g, shard.Options{Shards: 2, SimThreshold: 0.5})
	names, located := tailQueries(g)
	tracer := obs.NewTracer(1)
	run := func(qs []query.Query) func(*testing.B) {
		return func(b *testing.B) {
			var sums [2]int64 // candidates, entries
			for _, q := range qs {
				ctx, root := tracer.StartRoot(context.Background(), "search_tail", "")
				c.SearchContext(ctx, q)
				root.End()
				for _, sp := range tracer.Traces()[0].SpansNamed("accumulate") {
					for _, a := range sp.Attrs {
						switch a.Key {
						case "candidates":
							sums[0] += a.Value.(int64)
						case "entries":
							sums[1] += a.Value.(int64)
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Search(qs[i%len(qs)])
			}
			b.ReportMetric(float64(sums[0])/float64(len(qs)), "candidates/op")
			b.ReportMetric(float64(sums[1])/float64(len(qs)), "entries/op")
		}
	}
	b.Run("names", run(names))
	b.Run("location", run(located))
}
