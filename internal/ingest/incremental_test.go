package ingest

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

// generatedPipeline builds a one-shard pipeline over a generated data set,
// large enough that incremental index maintenance has real sharing to do.
func generatedPipeline(t *testing.T, scale float64, cfg Config) *Pipeline {
	t.Helper()
	return generatedShardedPipeline(t, scale, 1, cfg)
}

// fullRebuild is the ground truth a flushed generation must reproduce: the
// library building blocks (index.Build + query.Engine) from scratch over
// the generation's graph, with no coordinator in between.
func fullRebuild(g *pedigree.Graph) (*query.Engine, *index.Keyword, *index.Similarity) {
	k, sim := index.Build(g, 0.5)
	return query.NewEngine(g, k, sim), k, sim
}

// birthCert builds a submittable birth certificate for three names.
func birthCert(baby, father, mother [2]string, year int) *Certificate {
	return &Certificate{
		Type: "birth", Year: year, Address: "7 test lane",
		Roles: map[string]Person{
			"Bb": {FirstName: baby[0], Surname: baby[1], Gender: "m"},
			"Bf": {FirstName: father[0], Surname: father[1]},
			"Bm": {FirstName: mother[0], Surname: mother[1]},
		},
	}
}

// sampleQueries picks (first name, surname) pairs spread across the served
// graph, plus probes for never-indexed and newly indexed values.
func sampleQueries(sv *Serving, extra ...[2]string) []query.Query {
	var qs []query.Query
	step := len(sv.Graph.Nodes)/24 + 1
	for i := 0; i < len(sv.Graph.Nodes); i += step {
		n := &sv.Graph.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		qs = append(qs, query.Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]})
	}
	for _, e := range extra {
		qs = append(qs, query.Query{FirstName: e[0], Surname: e[1]})
	}
	return qs
}

// TestFlushIncrementalIndexGoldenEquivalence is the flush-level golden
// guard: generations published through Coordinator.Advance must rank queries
// byte-identically to a from-scratch rebuild of the same generation, across
// several chained incremental flushes.
func TestFlushIncrementalIndexGoldenEquivalence(t *testing.T) {
	p := generatedPipeline(t, 0.05, manualConfig())
	defer p.Close()
	incr := obs.Default.Counter("snaps_index_incremental_total", "")
	before := incr.Value()

	d := p.Serving().Dataset
	r0, r1 := &d.Records[0], &d.Records[len(d.Records)/2]
	rounds := [][]*Certificate{
		{ // merges into existing clusters, plus a brand-new surname
			birthCert([2]string{r0.FirstName(), r0.Surname()},
				[2]string{r1.FirstName(), r1.Surname()},
				[2]string{r1.FirstName(), r0.Surname()}, 1890),
			birthCert([2]string{"zebedee", "quixworth"},
				[2]string{"barnabus", "quixworth"},
				[2]string{"philomena", "quixworth"}, 1891),
		},
		{ // second flush patches the first incremental generation
			birthCert([2]string{"zebedee", "quixworth"},
				[2]string{"barnabus", "quixworth"},
				[2]string{r0.FirstName(), r0.Surname()}, 1893),
		},
	}
	for round, batch := range rounds {
		for _, c := range batch {
			if err := p.Submit(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}

		sv := p.Serving()
		// A from-scratch rebuild over the same data set and clustering is
		// the ground truth the incremental indexes must reproduce.
		full, _, _ := fullRebuild(sv.Graph)
		qs := sampleQueries(sv,
			[2]string{"zebedee", "quixworth"},
			[2]string{"zebedee", "quixwor"}, // typo probe: query-time probe path
			[2]string{"nosuchname", "nosuchsurname"})
		for _, q := range qs {
			got := sv.Shards.Search(q)
			want := full.Search(q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query %+v: incremental results %v, full rebuild %v",
					round, q, got, want)
			}
		}
	}
	if gained := incr.Value() - before; gained < int64(len(rounds)) {
		t.Fatalf("incremental index updates = %d, want >= %d (flushes fell back to full rebuilds)",
			gained, len(rounds))
	}
}

// TestConcurrentSearchesDuringIncrementalFlushes races query-time probe
// cache stores on the still-serving generation against index.UpdateSubset's
// lock-free reads of the same shards (plus the usual serve-during-swap
// traffic), under the race detector. Searchers deliberately probe unseen
// values so the previous generation's probe cache keeps churning while
// Update patches from its lists.
func TestConcurrentSearchesDuringIncrementalFlushes(t *testing.T) {
	p := generatedPipeline(t, 0.03, manualConfig())
	defer p.Close()

	sv0 := p.Serving()
	probes := sampleQueries(sv0)
	if len(probes) == 0 {
		t.Fatal("no sample queries")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := probes[(i+w)%len(probes)]
				// Mutate the probe so misses keep writing the probe cache of
				// whichever generation the searcher holds.
				q.FirstName = fmt.Sprintf("%s%d", q.FirstName, i%7)
				p.Serving().Shards.Search(q)
				sv0.Shards.Search(q) // the generation Advance reads from
			}
		}(w)
	}

	d := sv0.Dataset
	for round := 0; round < 4; round++ {
		r := &d.Records[(round*31)%len(d.Records)]
		c := birthCert(
			[2]string{r.FirstName(), r.Surname()},
			[2]string{"fintan", fmt.Sprintf("newname%d", round)},
			[2]string{"maeve", r.Surname()}, 1880+round)
		if err := p.Submit(c); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The final generation still answers exactly like a fresh rebuild.
	sv := p.Serving()
	full, _, _ := fullRebuild(sv.Graph)
	for _, q := range sampleQueries(sv)[:5] {
		if got, want := sv.Shards.Search(q), full.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: incremental results %v, full rebuild %v", q, got, want)
		}
	}
}

// TestOneShardFlushesPatchAndMatchFullBuild is the one-shard contract of
// the single serving path: N chained flushes through a one-shard pipeline
// answer Lookup, Similar, Search, and Explain exactly like index.Build +
// query.Engine built from scratch over the final graph, and every flush
// reports that it patched (rebuild_indexes span: incremental=1, one shard
// touched and patched, none reused) rather than "no shard was reused".
func TestOneShardFlushesPatchAndMatchFullBuild(t *testing.T) {
	cfg := manualConfig()
	cfg.Tracer = obs.NewTracer(16)
	p := generatedPipeline(t, 0.05, cfg)
	defer p.Close()

	d := p.Serving().Dataset
	const flushes = 3
	for i := 0; i < flushes; i++ {
		r := &d.Records[(i*37)%len(d.Records)]
		c := birthCert(
			[2]string{r.FirstName(), r.Surname()},
			[2]string{"fintan", fmt.Sprintf("quixworth%d", i)},
			[2]string{"maeve", r.Surname()}, 1880+i)
		if err := p.Submit(c); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	traces := cfg.Tracer.Traces()
	if len(traces) != flushes {
		t.Fatalf("%d flush traces, want %d", len(traces), flushes)
	}
	for _, tr := range traces {
		spans := tr.SpansNamed("rebuild_indexes")
		if len(spans) != 1 {
			t.Fatalf("flush trace has %d rebuild_indexes spans", len(spans))
		}
		attrs := map[string]any{}
		for _, a := range spans[0].Attrs {
			attrs[a.Key] = a.Value
		}
		for key, want := range map[string]int64{
			"incremental": 1, "shards_touched": 1, "shards_patched": 1, "shards_reused": 0,
		} {
			if got, _ := attrs[key].(int64); got != want {
				t.Fatalf("rebuild_indexes %s = %v, want %d (attrs %v)", key, attrs[key], want, attrs)
			}
		}
	}

	sv := p.Serving()
	sh := sv.Shards.Shards()[0]
	full, fullK, fullS := fullRebuild(sv.Graph)
	for i := range sv.Graph.Nodes {
		n := &sv.Graph.Nodes[i]
		for f, vals := range map[index.Field][]string{
			index.FieldFirstName: n.FirstNames, index.FieldSurname: n.Surnames,
		} {
			for _, v := range vals {
				if got, want := sh.Keyword.Lookup(f, v), fullK.Lookup(f, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("Lookup(%v, %q) = %v, full build %v", f, v, got, want)
				}
				if got, want := sh.Similar.Similar(f, v), fullS.Similar(f, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("Similar(%v, %q) = %v, full build %v", f, v, got, want)
				}
			}
		}
	}
	for _, q := range sampleQueries(sv, [2]string{"fintan", "quixworth1"}, [2]string{"fintan", "quixwor"}) {
		got, want := sv.Shards.Search(q), full.Search(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: one-shard results %v, full build %v", q, got, want)
		}
		for _, r := range want {
			if got, want := sv.Shards.Explain(q, r.Entity), full.Explain(q, r.Entity); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %+v entity %d: Explain = %+v, full build %+v", q, r.Entity, got, want)
			}
		}
	}
}
