// External test closing the loop of the query hot-path overhaul: pooled
// accumulator state, the similarity index's probe cache, and the generation-keyed
// result cache are hammered concurrently while the ingest pipeline flushes
// and hot-swaps serving snapshots underneath. Run under -race in CI.
package query_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/query"
)

// genCert is the certificate ingested to mark generation step i: the child
// name is unique per step, so searching it tells exactly which generations
// can see it.
func genCert(i int) *ingest.Certificate {
	return &ingest.Certificate{
		Type: "birth", Year: 1870 + i%40, Address: "staffin",
		Roles: map[string]ingest.Person{
			"Bb": {FirstName: fmt.Sprintf("ruaraidh%d", i), Surname: "nicolson", Gender: "m"},
			"Bm": {FirstName: "peigi", Surname: "nicolson"},
			"Bf": {FirstName: "iain", Surname: "nicolson"},
		},
	}
}

// TestCacheStressNoStaleGenerations runs concurrent Search traffic — cache
// hits (repeated hot query), cache misses (per-goroutine unique queries),
// and probe-cache stampedes (all goroutines probing the same never-seen
// surname) — while the ingest pipeline flushes and swaps snapshots. After
// every swap the test asserts the freshly served generation finds the
// certificate ingested for it, even though the identical query string was
// cached (empty) against earlier generations: a result cache that ignored
// generations would serve the stale empty ranking.
func TestCacheStressNoStaleGenerations(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.03))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1000 // flush only when the test says so
	cfg.QueryCache = 256
	// This test pins the strict invalidation mode: after a swap no request
	// may see a superseded ranking, not even once. The production default
	// (StaleServe) deliberately relaxes this by exactly one generation —
	// TestStaleWhileRevalidate covers that contract.
	cfg.StaleServe = false
	sv := ingest.NewServing(p.Dataset, pr.Result.Store, 1, cfg)
	pipe, err := ingest.NewPipeline(sv, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	var hotFirst, hotSur string
	for i := range sv.Graph.Nodes {
		n := &sv.Graph.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			hotFirst, hotSur = n.FirstNames[0], n.Surnames[0]
			break
		}
	}
	if hotFirst == "" {
		t.Fatal("no searchable entity")
	}

	const steps = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Hot searchers: the same query on whatever generation is current —
	// cache misses on the first probe of each generation, hits after.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng := pipe.Serving().Shards
				eng.Search(query.Query{FirstName: hotFirst, Surname: hotSur})
			}
		}()
	}
	// Cold searchers: per-iteration unique surnames — result-cache misses
	// plus similarity probes; every goroutine also probes one shared novel
	// surname to stampede a single probe-cache slot concurrently.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng := pipe.Serving().Shards
				eng.Search(query.Query{FirstName: hotFirst,
					Surname: fmt.Sprintf("%s%d_%d", hotSur, g, i)})
				eng.Search(query.Query{FirstName: hotFirst, Surname: "zzstampede"})
			}
		}(g)
	}

	// hasMarker reports whether any returned entity carries the marker
	// first name in the given serving bundle. The query also retrieves
	// pre-existing entities by surname alone, so presence of the marker
	// entity — not result count — is the generation signal.
	hasMarker := func(sv *ingest.Serving, res []query.Result, first string) bool {
		for _, r := range res {
			for _, fn := range sv.Graph.Node(r.Entity).FirstNames {
				if fn == first {
					return true
				}
			}
		}
		return false
	}

	// Driver: ingest one marker certificate per step, flush (publishing a
	// new generation), and assert the new generation serves it. The same
	// query was issued — and its marker-less ranking cached — against the
	// previous generation first, so a cache that ignored generations
	// would keep serving the stale ranking.
	for i := 0; i < steps; i++ {
		first := fmt.Sprintf("ruaraidh%d", i)
		markerQ := query.Query{FirstName: first, Surname: "nicolson"}

		before := pipe.Serving()
		// Two searches: a cache miss, then a hit of the stale-to-be entry.
		for pass := 0; pass < 2; pass++ {
			if hasMarker(before, before.Shards.Search(markerQ), first) {
				t.Fatalf("step %d pass %d: marker entity visible before ingesting it", i, pass)
			}
		}

		if err := pipe.Submit(genCert(i)); err != nil {
			t.Fatalf("step %d: submit: %v", i, err)
		}
		if err := pipe.Flush(); err != nil {
			t.Fatalf("step %d: flush: %v", i, err)
		}

		after := pipe.Serving()
		if after.Generation != before.Generation+1 {
			t.Fatalf("step %d: generation %d -> %d, want +1", i, before.Generation, after.Generation)
		}
		// Repeat to cover both the cache-miss and cache-hit path of the
		// new generation.
		for pass := 0; pass < 2; pass++ {
			if !hasMarker(after, after.Shards.Search(markerQ), first) {
				t.Fatalf("step %d pass %d: generation %d served a stale ranking without its own certificate",
					i, pass, after.Generation)
			}
		}
		// The superseded generation still answers consistently for
		// in-flight readers holding the old bundle.
		if hasMarker(before, before.Shards.Search(markerQ), first) {
			t.Fatalf("step %d: old generation suddenly sees the new certificate", i)
		}
	}
	close(stop)
	wg.Wait()

	st := pipe.Status()
	if st.Generation != steps {
		t.Fatalf("status generation = %d, want %d", st.Generation, steps)
	}
}
