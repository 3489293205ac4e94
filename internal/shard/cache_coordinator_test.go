// External tests of the coordinator's result cache: one cache per serving
// tier, so its metrics count searches and rankings, not shards, and a hit
// skips the scatter.
package shard_test

import (
	"testing"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
)

// raceEnabled is set by raceon_test.go under -race, where allocation counts
// are not the program's.
var raceEnabled bool

// nameQueries returns up to n distinct (first name, surname) queries, one
// per entity in graph order.
func nameQueries(g *pedigree.Graph, n int) []query.Query {
	var qs []query.Query
	seen := map[query.Query]bool{}
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if len(qs) == n {
			break
		}
		if len(nd.FirstNames) == 0 || len(nd.Surnames) == 0 {
			continue
		}
		q := query.Query{FirstName: nd.FirstNames[0], Surname: nd.Surnames[0]}
		if !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	return qs
}

// TestCoordinatorCacheCountsSearches: at two shards a cached search ticks
// the hit counter once and an uncached one the miss counter once, and the
// entries gauge is the number of cached rankings — more than half the
// capacity, which a budget split per shard could not hold.
func TestCoordinatorCacheCountsSearches(t *testing.T) {
	_, _, g := builtCase(t, 0.05)
	qs := nameQueries(g, 150)
	if len(qs) < 150 {
		t.Fatalf("only %d distinct name queries", len(qs))
	}
	c := shard.Partition(g, shard.Options{Shards: 2, SimThreshold: 0.5, CacheEntries: 256})
	hits := obs.Default.Counter("snaps_query_cache_hits_total", "")
	misses := obs.Default.Counter("snaps_query_cache_misses_total", "")
	entries := obs.Default.Gauge("snaps_query_cache_entries", "")

	m0 := misses.Value()
	for _, q := range qs {
		c.Search(q)
	}
	if got := misses.Value() - m0; got != int64(len(qs)) {
		t.Errorf("%d first searches ticked %d misses", len(qs), got)
	}
	if got := entries.Value(); got != int64(len(qs)) {
		t.Errorf("snaps_query_cache_entries = %d after caching %d rankings", got, len(qs))
	}
	h0 := hits.Value()
	for _, q := range qs {
		c.Search(q)
	}
	if got := hits.Value() - h0; got != int64(len(qs)) {
		t.Errorf("%d repeated searches ticked %d hits", len(qs), got)
	}
}

// TestCoordinatorCacheHitAllocs holds a warmed search at two shards to the
// allocation of its cache key: a hit neither scatters nor merges.
func TestCoordinatorCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, _, g := builtCase(t, 0.05)
	c := shard.Partition(g, shard.Options{Shards: 2, SimThreshold: 0.5, CacheEntries: 64})
	q := nameQueries(g, 1)[0]
	if len(c.Search(q)) == 0 {
		t.Fatalf("no results for %+v", q)
	}
	const ceiling = 1
	if got := testing.AllocsPerRun(200, func() { c.Search(q) }); got > ceiling {
		t.Errorf("a cached Search(%+v) makes %v allocations, ceiling %d", q, got, ceiling)
	}
}

// TestScatterAllocsCeiling holds an uncached search at two shards to its 10
// allocations: one per shard engine (its ranked results), the rest the
// scatter's per-shard slots and worker pool and the merge.
func TestScatterAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, _, g := builtCase(t, 0.05)
	c := shard.Partition(g, shard.Options{Shards: 2, SimThreshold: 0.5})
	q := nameQueries(g, 1)[0]
	if len(c.Search(q)) == 0 {
		t.Fatalf("no results for %+v", q)
	}
	const ceiling = 10
	if got := testing.AllocsPerRun(200, func() { c.Search(q) }); got > ceiling {
		t.Errorf("an uncached Search(%+v) at two shards makes %v allocations, ceiling %d", q, got, ceiling)
	}
}
