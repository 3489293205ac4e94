// External tests locking down the scatter-gather contract: for any shard
// count the coordinator must serve byte-identical rankings, scores, and
// explanations to the single-shard engine, on the seed data set and on one
// grown through incremental ingest flushes (both the fresh-partition and
// the Advance-incremental paths).
package shard_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
)

// goldenShardCounts is the matrix the equivalence suite runs: the default
// one shard, powers of two, and a prime that leaves the hash's modulo nothing
// to hide behind.
var goldenShardCounts = []int{1, 2, 4, 7}

// builtCase simulates, resolves, and builds the pedigree graph once per
// scale.
func builtCase(t *testing.T, scale float64) (*model.Dataset, *er.EntityStore, *pedigree.Graph) {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(scale))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	return p.Dataset, pr.Result.Store, pedigree.Build(p.Dataset, pr.Result.Store)
}

// goldenQueries samples name queries across the graph plus refinement,
// typo, and absent-value probes — every one must retrieve entities from
// several shards so the merge path is genuinely exercised.
func goldenQueries(g *pedigree.Graph) []query.Query {
	var qs []query.Query
	seen := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		first, sur := n.FirstNames[0], n.Surnames[0]
		qs = append(qs, query.Query{FirstName: first, Surname: sur})
		qs = append(qs, query.Query{FirstName: first, Surname: sur, Gender: model.Female})
		if n.MinYear != 0 {
			qs = append(qs, query.Query{FirstName: first, Surname: sur,
				YearFrom: n.MinYear - 2, YearTo: n.MinYear + 2})
		}
		if len(sur) >= 5 {
			qs = append(qs, query.Query{FirstName: first, Surname: sur[:len(sur)-1] + "x"})
		}
		seen++
		if seen >= 10 {
			break
		}
	}
	qs = append(qs, query.Query{FirstName: "nosuchname", Surname: "nosuchsurname"})
	return qs
}

// render serialises a ranking into the byte-comparable golden form: entity
// id, the full float64 score, and the per-field match flags.
func render(results []query.Result) string {
	out := ""
	for _, r := range results {
		out += fmt.Sprintf("%d %.17g", r.Entity, r.Score)
		for f, m := range r.Matched {
			if m != query.MatchNone {
				out += fmt.Sprintf(" %v=%v", index.Field(f), m == query.MatchExact)
			}
		}
		out += "\n"
	}
	return out
}

// checkPartition asserts the ownership function covers every node exactly
// once: owners in range, per-shard node counts summing to the graph.
func checkPartition(t *testing.T, c *shard.Coordinator, g *pedigree.Graph) {
	t.Helper()
	total := 0
	perShard := make([]int, c.NumShards())
	for i := range g.Nodes {
		s := c.OwnerOf(pedigree.NodeID(i))
		if s < 0 || s >= c.NumShards() {
			t.Fatalf("node %d owned by out-of-range shard %d", i, s)
		}
		perShard[s]++
	}
	for s, sh := range c.Shards() {
		if sh.NodeCount != perShard[s] {
			t.Fatalf("shard %d reports %d nodes, owns %d", s, sh.NodeCount, perShard[s])
		}
		total += sh.NodeCount
	}
	if total != len(g.Nodes) {
		t.Fatalf("shards own %d nodes, graph has %d", total, len(g.Nodes))
	}
}

// TestScatterGatherGoldenEquivalence is the cross-shard golden guard: for
// every shard count the coordinator's full result sets — scores, ordering,
// match flags, and explain output — must be byte-identical to the
// single-shard engine's, at several ranking depths and on both the
// uncached and cached paths.
func TestScatterGatherGoldenEquivalence(t *testing.T) {
	_, _, g := builtCase(t, 0.05)
	kidx, sidx := index.Build(g, 0.5)
	ref := query.NewEngine(g, kidx, sidx)
	qs := goldenQueries(g)
	if len(qs) == 0 {
		t.Skip("no searchable entities")
	}

	for _, n := range goldenShardCounts {
		// Uncached coordinator for the top-m sweep: a result cache would
		// otherwise hand back rankings trimmed at an earlier depth.
		c := shard.Partition(g, shard.Options{Shards: n, SimThreshold: 0.5})
		if c.NumShards() != n {
			t.Fatalf("Partition(%d) built %d shards", n, c.NumShards())
		}
		checkPartition(t, c, g)

		for _, topM := range []int{20, 3, 0} {
			ref.TopM = topM
			c.SetTopM(topM)
			for qi, q := range qs {
				want := render(ref.Search(q))
				got := render(c.Search(q))
				if got != want {
					t.Fatalf("shards=%d topM=%d query %d (%+v):\nsingle-shard:\n%s\nscatter-gather:\n%s",
						n, topM, qi, q, want, got)
				}
			}
		}

		// Cached coordinator at the default depth: the miss caches the
		// merged ranking, the hit must replay it identically.
		ref.TopM = 20
		cc := shard.Partition(g, shard.Options{Shards: n, SimThreshold: 0.5, CacheEntries: 256})
		for qi, q := range qs {
			want := render(ref.Search(q))
			if miss := render(cc.Search(q)); miss != want {
				t.Fatalf("shards=%d query %d: cache-miss ranking diverged", n, qi)
			}
			if hit := render(cc.Search(q)); hit != want {
				t.Fatalf("shards=%d query %d: cache-hit ranking diverged", n, qi)
			}
		}

		// Explanations route to the owning shard and must match the
		// single-shard engine structurally, entity by entity.
		for _, q := range qs[:3] {
			res := ref.Search(q)
			for ri, r := range res {
				if ri >= 3 {
					break
				}
				want := ref.Explain(q, r.Entity)
				got := c.Explain(q, r.Entity)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d query %+v entity %d: explanations differ\nwant %+v\ngot  %+v",
						n, q, r.Entity, want, got)
				}
			}
		}
	}
}

// TestScatterGatherResultsDeepEqual double-checks structural equality
// (match state included) between the coordinator and the engine on the default
// configuration.
func TestScatterGatherResultsDeepEqual(t *testing.T) {
	_, _, g := builtCase(t, 0.03)
	kidx, sidx := index.Build(g, 0.5)
	ref := query.NewEngine(g, kidx, sidx)
	qs := goldenQueries(g)
	for _, n := range goldenShardCounts {
		c := shard.Partition(g, shard.Options{Shards: n, SimThreshold: 0.5})
		for qi, q := range qs {
			want := ref.Search(q)
			got := c.Search(q)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shards=%d query %d (%+v): results differ\nwant %+v\ngot  %+v",
					n, qi, q, want, got)
			}
		}
	}
}

// growCert builds the ingest certificate used to grow the seed data set:
// some names reuse existing records (dirtying their clusters), some are
// novel (new entities, new index values).
func growCert(baby, father, mother [2]string, year int) *ingest.Certificate {
	return &ingest.Certificate{
		Type: "birth", Year: year, Address: "3 golden brae",
		Roles: map[string]ingest.Person{
			"Bb": {FirstName: baby[0], Surname: baby[1], Gender: "m"},
			"Bf": {FirstName: father[0], Surname: father[1]},
			"Bm": {FirstName: mother[0], Surname: mother[1]},
		},
	}
}

// TestScatterGatherGoldenEquivalenceGrown replays incremental ingest
// flushes through a sharded pipeline and asserts, for every shard count,
// that the Advance-incremental coordinator, a from-scratch partition of
// the grown graph, and a from-scratch single-shard engine all serve
// byte-identical rankings — including for names only the grown generation
// knows.
func TestScatterGatherGoldenEquivalenceGrown(t *testing.T) {
	d, st, _ := builtCase(t, 0.03)
	r0, r1 := &d.Records[0], &d.Records[len(d.Records)/2]
	rounds := [][]*ingest.Certificate{
		{
			growCert([2]string{r0.FirstName(), r0.Surname()},
				[2]string{r1.FirstName(), r1.Surname()},
				[2]string{r1.FirstName(), r0.Surname()}, 1890),
			growCert([2]string{"zebedee", "quixworth"},
				[2]string{"barnabus", "quixworth"},
				[2]string{"philomena", "quixworth"}, 1891),
		},
		{
			growCert([2]string{"zebedee", "quixworth"},
				[2]string{"barnabus", "quixworth"},
				[2]string{r0.FirstName(), r0.Surname()}, 1893),
		},
	}

	for _, n := range goldenShardCounts {
		cfg := ingest.DefaultConfig()
		cfg.BatchSize = 1 << 20 // flush only when the test says so
		cfg.MaxAge = time.Hour
		cfg.QueryCache = 256
		cfg.StaleServe = false // strict: a superseded ranking would be a diff
		pipe, err := ingest.NewPipeline(ingest.NewServing(d, st, n, cfg), nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}

		for round, batch := range rounds {
			for _, c := range batch {
				if err := pipe.Submit(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := pipe.Flush(); err != nil {
				t.Fatal(err)
			}

			sv := pipe.Serving()
			checkPartition(t, sv.Shards, sv.Graph)
			// Ground truth: a query.Engine over a from-scratch index.Build of
			// the same grown generation; cross-check: a from-scratch
			// partition of it.
			kidx, sidx := index.Build(sv.Graph, 0.5)
			ref := query.NewEngine(sv.Graph, kidx, sidx)
			fresh := shard.Partition(sv.Graph, shard.Options{Shards: n, SimThreshold: 0.5})
			qs := append(goldenQueries(sv.Graph),
				query.Query{FirstName: "zebedee", Surname: "quixworth"},
				query.Query{FirstName: "zebedee", Surname: "quixwor"}, // typo: query-time probe path
				query.Query{FirstName: "philomena", Surname: "quixworth"})
			for qi, q := range qs {
				want := render(ref.Search(q))
				if got := render(sv.Shards.Search(q)); got != want {
					t.Fatalf("shards=%d round %d query %d (%+v): incremental coordinator diverged\nwant:\n%s\ngot:\n%s",
						n, round, qi, q, want, got)
				}
				if got := render(fresh.Search(q)); got != want {
					t.Fatalf("shards=%d round %d query %d (%+v): fresh partition diverged\nwant:\n%s\ngot:\n%s",
						n, round, qi, q, want, got)
				}
			}
		}
		pipe.Close()
	}
}
