// External tests of the result cache's stale-while-revalidate mode: after
// a flush bumps the serving generation, searches whose ranking is cached
// under the previous generation must be answered from that entry
// immediately — never blocking on a synchronous recompute — while a single
// background refresh installs the ranking under the new generation. Run
// under -race in CI.
package query_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/query"
)

// swrPipeline builds a small pipeline over nshards shards with the result
// cache in stale-while-revalidate mode (the production default).
func swrPipeline(t *testing.T, nshards int) *ingest.Pipeline {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(0.03))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1 << 20 // flush only when the test says so
	cfg.QueryCache = 256
	cfg.StaleServe = true
	sv := ingest.NewServing(p.Dataset, pr.Result.Store, nshards, cfg)
	pipe, err := ingest.NewPipeline(sv, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pipe.Close() })
	return pipe
}

func counterValue(name string) int64 { return obs.Default.Counter(name, "").Value() }

// TestStaleWhileRevalidate drives one query across a flush/generation swap
// and asserts the stale-serve contract: the first post-swap search answers
// from the previous generation's entry (without waiting for a recompute),
// and the background refresh installs an entry that carries the new
// generation — observable because only a current-generation cache entry
// can make the marker certificate visible on the hit path.
func TestStaleWhileRevalidate(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { staleWhileRevalidate(t, n) })
	}
}

func staleWhileRevalidate(t *testing.T, nshards int) {
	pipe := swrPipeline(t, nshards)

	markerQ := query.Query{FirstName: "ruaraidhswr", Surname: "nicolson"}
	before := pipe.Serving()
	// Warm the cache under generation 0: miss, then hit.
	base := before.Shards.Search(markerQ)
	before.Shards.Search(markerQ)

	cert := &ingest.Certificate{
		Type: "birth", Year: 1885, Address: "staffin",
		Roles: map[string]ingest.Person{
			"Bb": {FirstName: "ruaraidhswr", Surname: "nicolson", Gender: "m"},
			"Bm": {FirstName: "peigi", Surname: "nicolson"},
		},
	}
	if err := pipe.Submit(cert); err != nil {
		t.Fatal(err)
	}
	staleBefore := counterValue("snaps_query_cache_stale_serves_total")
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	after := pipe.Serving()
	if after.Generation != before.Generation+1 {
		t.Fatalf("generation %d -> %d, want +1", before.Generation, after.Generation)
	}

	hasMarker := func(sv *ingest.Serving, res []query.Result) bool {
		for _, r := range res {
			for _, fn := range sv.Graph.Node(r.Entity).FirstNames {
				if fn == "ruaraidhswr" {
					return true
				}
			}
		}
		return false
	}

	// First post-swap search: served from the superseded generation's
	// entry — same ranking as before the flush, marker not yet visible,
	// stale-serve counter incremented. A blocking recompute would have
	// found the marker here.
	stale := after.Shards.Search(markerQ)
	if hasMarker(after, stale) {
		t.Fatal("first post-swap search recomputed synchronously instead of serving stale")
	}
	if len(stale) != len(base) {
		t.Fatalf("stale ranking has %d results, warmed entry had %d", len(stale), len(base))
	}
	if got := counterValue("snaps_query_cache_stale_serves_total"); got <= staleBefore {
		t.Fatalf("stale serve counter did not move: %d -> %d", staleBefore, got)
	}

	// The background refresh installs the new generation's ranking; once
	// it lands, the hit path must see the marker. Only an entry keyed to
	// the new generation can be served here, so marker visibility proves
	// the refreshed entry carries it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hasMarker(after, after.Shards.Search(markerQ)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refreshed entry never appeared under the new generation")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStaleServeNeverBlocksAcrossSwaps is the -race stress: searchers
// hammer a fixed hot set while the driver flushes generation after
// generation. Every search must return a ranking that is either the
// current generation's or the immediately superseded one — in SWR mode the
// cache retains exactly one generation back — and the run must be free of
// data races between stale serves, background refreshes, and swaps.
func TestStaleServeNeverBlocksAcrossSwaps(t *testing.T) {
	pipe := swrPipeline(t, 1)

	sv := pipe.Serving()
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
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
				// Hot query: repeatedly crosses miss/stale/hit paths as
				// generations swap under it.
				eng.Search(query.Query{FirstName: hotFirst, Surname: hotSur})
				// Warm a per-goroutine query so each generation has
				// predecessors to stale-serve from.
				eng.Search(query.Query{FirstName: hotFirst, Surname: fmt.Sprintf("%s%d", hotSur, g%3)})
			}
		}(g)
	}

	for i := 0; i < 5; i++ {
		if err := pipe.Submit(&ingest.Certificate{
			Type: "birth", Year: 1870 + i, Address: "staffin",
			Roles: map[string]ingest.Person{
				"Bb": {FirstName: fmt.Sprintf("swrstress%d", i), Surname: "nicolson", Gender: "f"},
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := pipe.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if pipe.Serving().Generation != 5 {
		t.Fatalf("generation = %d, want 5", pipe.Serving().Generation)
	}
}
