// External -race stress closing the loop on the sharded serving tier:
// concurrent scatter-gather searches — cache hits, cache misses, and
// probe-cache stampedes — run while the ingest pipeline flushes and
// republishes coordinators underneath. The assertions pin the RCU
// contract: a held coordinator keeps serving one immutable generation of
// every shard (never a torn mix), the freshly published coordinator sees
// its own certificate immediately (no stale cache entry survives a
// flush), and every flush republishes every shard.
package shard_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/query"
)

// testShards reads SNAPS_TEST_SHARDS (the CI shard matrix) with a default
// of 4, so the same stress runs single-shard and sharded.
func testShards(t *testing.T) int {
	t.Helper()
	v := os.Getenv("SNAPS_TEST_SHARDS")
	if v == "" {
		return 4
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad SNAPS_TEST_SHARDS=%q", v)
	}
	return n
}

// markerCert is the certificate ingested at step i; the child's first name
// is unique per step so searching it tells exactly which generations can
// see it, and the per-step surname spreads consecutive flushes' entities
// across different shards.
func markerCert(i int) *ingest.Certificate {
	sur := fmt.Sprintf("markerclan%d", i%5)
	return &ingest.Certificate{
		Type: "birth", Year: 1870 + i%40, Address: "staffin",
		Roles: map[string]ingest.Person{
			"Bb": {FirstName: fmt.Sprintf("tormod%d", i), Surname: sur, Gender: "m"},
			"Bm": {FirstName: "peigi", Surname: sur},
			"Bf": {FirstName: "iain", Surname: sur},
		},
	}
}

// TestScatterGatherStressNoTornGenerations runs hot and cold searchers
// against whatever coordinator is currently published while the driver
// ingests one marker certificate per step and flushes. Strict cache mode
// (no stale-serve): after a swap no request may observe a superseded
// ranking, and a reader holding the old coordinator must keep getting its
// old, internally consistent answer.
func TestScatterGatherStressNoTornGenerations(t *testing.T) {
	nshards := testShards(t)
	d, st, _ := builtCase(t, 0.03)
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1 << 20 // flush only when the driver says so
	// Strict cache mode (no stale-serve), so the assertions can demand
	// zero superseded rankings.
	cfg.QueryCache = 256
	cfg.StaleServe = false
	sv0 := ingest.NewServing(d, st, nshards, cfg)
	pipe, err := ingest.NewPipeline(sv0, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	g0 := sv0.Graph
	var hotFirst, hotSur string
	for i := range g0.Nodes {
		n := &g0.Nodes[i]
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
	// Hot searchers: the same query on the current coordinator — a cache
	// miss on the first probe of each touched generation, hits after.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pipe.Serving().Shards.Search(query.Query{FirstName: hotFirst, Surname: hotSur})
			}
		}()
	}
	// Cold searchers: per-iteration unique surnames (result-cache misses and
	// probes on every shard) plus one shared novel surname stampeding one
	// probe-cache slot.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := pipe.Serving().Shards
				c.Search(query.Query{FirstName: hotFirst,
					Surname: fmt.Sprintf("%s%d_%d", hotSur, w, i)})
				c.Search(query.Query{FirstName: hotFirst, Surname: "zzstampede"})
			}
		}(w)
	}

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

	const steps = 6
	for i := 0; i < steps; i++ {
		first := fmt.Sprintf("tormod%d", i)
		markerQ := query.Query{FirstName: first, Surname: fmt.Sprintf("markerclan%d", i%5)}

		before := pipe.Serving()
		// Two searches: a cache miss, then a hit of the soon-stale entry.
		for pass := 0; pass < 2; pass++ {
			if hasMarker(before, before.Shards.Search(markerQ), first) {
				t.Fatalf("step %d pass %d: marker visible before ingesting it", i, pass)
			}
		}
		beforeRanking := render(before.Shards.Search(markerQ))

		if err := pipe.Submit(markerCert(i)); err != nil {
			t.Fatalf("step %d: submit: %v", i, err)
		}
		if err := pipe.Flush(); err != nil {
			t.Fatalf("step %d: flush: %v", i, err)
		}

		after := pipe.Serving()
		if after.Generation != before.Generation+1 {
			t.Fatalf("step %d: generation %d -> %d, want +1", i, before.Generation, after.Generation)
		}
		if after.Shards.Generation() != after.Generation {
			t.Fatalf("step %d: coordinator generation %d, bundle %d",
				i, after.Shards.Generation(), after.Generation)
		}
		// The new coordinator must see its own certificate on both the
		// cache-miss and cache-hit path: a stale entry surviving the flush
		// would serve the marker-less ranking.
		for pass := 0; pass < 2; pass++ {
			if !hasMarker(after, after.Shards.Search(markerQ), first) {
				t.Fatalf("step %d pass %d: generation %d served a ranking without its own certificate",
					i, pass, after.Generation)
			}
		}
		// A reader still holding the superseded coordinator keeps getting
		// the identical pre-flush answer — shards are immutable, so there is
		// no window where it could see half-old half-new partitions.
		if got := render(before.Shards.Search(markerQ)); got != beforeRanking {
			t.Fatalf("step %d: held coordinator's ranking changed under it:\nbefore:\n%s\nafter:\n%s",
				i, beforeRanking, got)
		}

		// Every shard is republished by every flush: none is carried over.
		for s := 0; s < before.Shards.NumShards(); s++ {
			if before.Shards.Shards()[s] == after.Shards.Shards()[s] {
				t.Fatalf("step %d shard %d: carried over by the flush, not republished", i, s)
			}
		}
	}
	close(stop)
	wg.Wait()
}
