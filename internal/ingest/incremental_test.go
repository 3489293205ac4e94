package ingest

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/symbol"
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
// reports that it patched (rebuild_indexes span: one shard, no block
// rebuilt).
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
			"shards": 1, "blocks_rebuilt": 0,
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
				id, _ := symbol.Lookup(v)
				if got, want := sh.Keyword.Entities(f, id), fullK.Entities(f, id); !reflect.DeepEqual(got, want) {
					t.Fatalf("Lookup(%v, %q) = %v, full build %v", f, v, got, want)
				}
				if got, want := similarValues(sh.Similar.Similar(f, v)), similarValues(fullS.Similar(f, v)); !reflect.DeepEqual(got, want) {
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

// scaleDataset generates a DS tier of the given size, seeded apart from the
// tier's default when seedOffset is not zero.
func scaleDataset(certs int, seedOffset int64) *model.Dataset {
	cfg := dataset.ScaleTier(certs)
	cfg.Seed += seedOffset
	return dataset.GenerateScale(cfg).Dataset
}

// holdoutCerts is a stream of certificates the served corpus has not seen
// but shares its name pools with: a second, differently seeded DS tier in
// the wire format, without the few the validator refuses (a role with
// neither name).
func holdoutCerts(certs int) []*Certificate {
	d := scaleDataset(certs, 1)
	types := map[model.CertType]string{model.Birth: "birth", model.Death: "death", model.Marriage: "marriage"}
	var out []*Certificate
	for i := range d.Certificates {
		mc := &d.Certificates[i]
		c := &Certificate{Type: types[mc.Type], Year: mc.Year, Cause: mc.Cause, Roles: map[string]Person{}}
		if mc.Age > 0 {
			c.Age = mc.Age
		}
		for role := model.Role(0); role < model.NumRoles; role++ {
			id, ok := mc.Roles[role]
			if !ok || id < 0 {
				continue
			}
			r := d.Record(id)
			p := Person{FirstName: r.FirstName(), Surname: r.Surname()}
			if r.Gender != model.GenderUnknown {
				p.Gender = r.Gender.String()
			}
			c.Roles[role.String()] = p
			if role.IsPrincipal() && c.Address == "" {
				c.Address = r.Address()
			}
		}
		if c.Validate() == nil {
			out = append(out, c)
		}
	}
	return out
}

// TestJournalReplayBatchPatchMatchesFreshBuild gives the S patch the shape a
// journal replay gives it: one flush of over a hundred certificates, so
// lists take many added entries each instead of the one or two every other
// equivalence test grows a generation by. The batch adds 5–9% to each
// shard's name fields, short of the share over which the index rebuilds a
// block, so every block is patched, and every shard's K and S must answer
// like a fresh BuildSubset over the same partition of the new graph.
func TestJournalReplayBatchPatchMatchesFreshBuild(t *testing.T) {
	d := scaleDataset(2000, 0)
	// A flush clones the data set and restores the clusters, so both shard
	// counts start from the one resolution.
	st := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
	batch := holdoutCerts(160)
	if len(batch) < 150 {
		t.Fatalf("hold-out stream has %d valid certificates, want >= 150", len(batch))
	}
	for _, nshards := range []int{1, 2} {
		cfg := manualConfig()
		cfg.Tracer = obs.NewTracer(4)
		p, err := NewPipeline(NewServing(d, st, nshards, cfg), nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before []int
		for _, sh := range p.Serving().Shards.Shards() {
			before = append(before, sh.Keyword.Values(index.FieldSurname))
		}
		for _, c := range batch {
			if err := p.Submit(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		sv := p.Serving()
		p.Close()

		attrs := map[string]int64{}
		for _, a := range cfg.Tracer.Traces()[0].SpansNamed("rebuild_indexes")[0].Attrs {
			attrs[a.Key], _ = a.Value.(int64)
		}
		if attrs["shards"] != int64(nshards) || attrs["blocks_rebuilt"] != 0 {
			t.Fatalf("%d shards: the batch should advance every shard and patch every block: %v", nshards, attrs)
		}

		for s, sh := range sv.Shards.Shards() {
			// Many names added at once is the point of the case.
			if was, is := before[s], sh.Keyword.Values(index.FieldSurname); is < was+30 {
				t.Fatalf("%d shards, shard %d: surnames went %d -> %d, want >= 30 added", nshards, s, was, is)
			}
		}
		shardsMatchFreshBuild(t, sv)
	}
}

// similarValues materialises a view of S: the values, their order and their
// similarities are what two indexes must agree on.
func similarValues(l index.SimilarList) []index.SimilarValue {
	out := make([]index.SimilarValue, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

// ownedBy is the ownership filter of shard s (nil at one shard: BuildSubset
// then is exactly Build).
func ownedBy(sv *Serving, s int) func(pedigree.NodeID) bool {
	if len(sv.Shards.Shards()) == 1 {
		return nil
	}
	return func(id pedigree.NodeID) bool { return sv.Shards.OwnerOf(id) == s }
}

// shardsMatchFreshBuild checks every served shard's K and S against a fresh
// BuildSubset over the same partition of the served graph: value counts per
// field, the postings of every value an owned entity carries, the similarity
// list of every owned name — values, order and similarities — and a few
// probes neither index holds.
func shardsMatchFreshBuild(t *testing.T, sv *Serving) {
	t.Helper()
	nshards := len(sv.Shards.Shards())
	for s, sh := range sv.Shards.Shards() {
		keep := ownedBy(sv, s)
		wantK, wantS := index.BuildSubset(sv.Graph, keep, 0.5)
		for f := index.Field(0); f < index.NumFields; f++ {
			if got, want := sh.Keyword.Values(f), wantK.Values(f); got != want {
				t.Fatalf("%d shards, shard %d field %v: %d values, fresh build %d", nshards, s, f, got, want)
			}
		}
		for i := range sv.Graph.Nodes {
			n := &sv.Graph.Nodes[i]
			if keep != nil && !keep(n.ID) {
				continue
			}
			for f, vals := range map[index.Field][]string{
				index.FieldFirstName: n.FirstNames, index.FieldSurname: n.Surnames,
				index.FieldLocation: n.Locations, index.FieldGender: {n.Gender.String()},
			} {
				for _, v := range vals {
					id, _ := symbol.Lookup(v)
					if got, want := sh.Keyword.Entities(f, id), wantK.Entities(f, id); !reflect.DeepEqual(got, want) {
						t.Fatalf("%d shards, shard %d: Lookup(%v, %q) = %v, fresh build %v", nshards, s, f, v, got, want)
					}
					if f != index.FieldFirstName && f != index.FieldSurname {
						continue
					}
					if got, want := similarValues(sh.Similar.Similar(f, v)), similarValues(wantS.Similar(f, v)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%d shards, shard %d: Similar(%v, %q) = %v, fresh build %v", nshards, s, f, v, got, want)
					}
				}
			}
		}
		for _, f := range []index.Field{index.FieldFirstName, index.FieldSurname} {
			for _, probe := range []string{"zqprobe", "macdonalt", "alexandr"} {
				if got, want := similarValues(sh.Similar.Similar(f, probe)), similarValues(wantS.Similar(f, probe)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d shards, shard %d: probe Similar(%v, %q) = %v, fresh build %v", nshards, s, f, probe, got, want)
				}
			}
		}
	}
}

// TestChainedFlushesMatchFreshBuild rewrites each S block from a rewritten
// block: 8 consecutive 16-certificate flushes, at 1 and 2 shards, at least
// one of which takes a name out of a shard (an entity that merges can move to
// the other shard and take its rare name along). One flush is pinned above;
// offsets that drift a little per rewrite show only on a chain. After the
// last flush every shard's K and S must answer like a fresh BuildSubset.
func TestChainedFlushesMatchFreshBuild(t *testing.T) {
	d := scaleDataset(2000, 0)
	st := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
	const flushes, perFlush = 8, 16
	// The head of a DS-2k hold-out stream: its fifth batch merges two served
	// entities across the shards (checked below, not assumed).
	batch := holdoutCerts(2000)[:flushes*perFlush]
	// names is what each shard indexes per name field: what its entities carry.
	names := func(sv *Serving) []map[string]bool {
		out := make([]map[string]bool, len(sv.Shards.Shards()))
		for s := range out {
			out[s] = map[string]bool{}
		}
		for i := range sv.Graph.Nodes {
			n := &sv.Graph.Nodes[i]
			for _, v := range n.FirstNames {
				out[sv.Shards.OwnerOf(n.ID)]["f:"+v] = true
			}
			for _, v := range n.Surnames {
				out[sv.Shards.OwnerOf(n.ID)]["s:"+v] = true
			}
		}
		return out
	}
	removals := 0
	for _, nshards := range []int{1, 2} {
		cfg := manualConfig()
		p, err := NewPipeline(NewServing(d, st, nshards, cfg), nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := names(p.Serving())
		for i := 0; i < flushes; i++ {
			for _, c := range batch[i*perFlush : (i+1)*perFlush] {
				if err := p.Submit(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			cur := names(p.Serving())
			for s := range cur {
				for v := range prev[s] {
					if !cur[s][v] {
						removals++
					}
				}
			}
			prev = cur
		}
		sv := p.Serving()
		p.Close()
		if got := sv.Generation; got != flushes {
			t.Fatalf("%d shards: generation %d after %d flushes", nshards, got, flushes)
		}
		shardsMatchFreshBuild(t, sv)
	}
	if removals == 0 {
		t.Fatal("no flush took a name out of a shard: the chain never rewrote a block around a removed row")
	}
}
