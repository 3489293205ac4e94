package index

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/store"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// appendBirthCert appends a synthetic birth certificate to the data set the
// way the ingest pipeline's Apply does: one record per role, names already
// normalised, deterministic record ids.
func appendBirthCert(d *model.Dataset, baby, father, mother [2]string, year int) {
	certID := model.CertID(len(d.Certificates))
	cert := model.Certificate{
		ID: certID, Type: model.Birth, Year: year,
		Roles: map[model.Role]model.RecordID{}, Age: -1,
	}
	add := func(role model.Role, name [2]string, g model.Gender) {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: certID, Role: role, Gender: g,
			First: model.Intern(name[0]), Sur: model.Intern(name[1]),
			Year: year, Truth: model.NoPerson,
		})
		cert.Roles[role] = id
	}
	add(model.Bb, baby, model.Male)
	add(model.Bm, mother, model.Female)
	add(model.Bf, father, model.Male)
	d.Certificates = append(d.Certificates, cert)
}

// buildGenerations resolves a base data set into a served generation, then
// produces the next generation the way an ingest flush does: clone, append
// a small batch of certificates (some reusing existing names so clusters
// change, some introducing values never indexed before), restore the
// previous clustering, and er.Extend over the new records.
func buildGenerations(tb testing.TB, scale float64) (prevG, newG *pedigree.Graph, prevK *Keyword, prevS *Similarity) {
	tb.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(scale))
	d := p.Dataset
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	prevG = pedigree.Build(d, pr.Result.Store)
	prevK, prevS = Build(prevG, 0.5)

	newD := d.Clone()
	firstNew := model.RecordID(len(newD.Records))
	// Reuse names already in the data set so the new records merge into
	// existing clusters (dirtying their nodes) ...
	r0, r1 := &d.Records[0], &d.Records[len(d.Records)/2]
	appendBirthCert(newD,
		[2]string{r0.FirstName(), r0.Surname()},
		[2]string{r1.FirstName(), r1.Surname()},
		[2]string{r1.FirstName(), r0.Surname()}, 1890)
	// ... and introduce names no generation has seen, so the similarity
	// index has genuinely new values to fold in.
	appendBirthCert(newD,
		[2]string{"zebedee", "quixworth"},
		[2]string{"barnabus", "quixworth"},
		[2]string{"philomena", "quixworth"}, 1891)

	snap := store.Snapshot{Dataset: newD, Clusters: pr.Result.Store.Clusters()}
	newStore := snap.Restore()
	er.Extend(newD, newStore, firstNew, depgraph.DefaultConfig(), er.DefaultConfig())
	newG = pedigree.Build(newD, newStore)
	return prevG, newG, prevK, prevS
}

func sameSimilar(a, b []SimilarValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// values materialises a view as the list it stands for (empty, not nil, when
// it has no entries).
func values(l SimilarList) []SimilarValue {
	out := make([]SimilarValue, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

// similar is Similar, materialised.
func (s *Similarity) similar(f Field, v string) []SimilarValue { return values(s.Similar(f, v)) }

// probe is computeSimilar, materialised.
func (s *Similarity) probe(f Field, v string) []SimilarValue { return values(s.computeSimilar(f, v)) }

// listOf is the precomputed list of v: nil when the field's block has no row
// for it.
func (s *Similarity) listOf(f Field, v string) []SimilarValue {
	if s.blocks[f] != nil {
		if r, ok := rank(s.ranked[f], v); ok {
			return values(s.row(f, r))
		}
	}
	return nil
}

// TestUpdateEquivalence is the structural golden guard for incremental
// index maintenance: Update must answer every lookup and Similar exactly
// like a fresh Build over the new generation — same posting lists, same
// similarity lists, for indexed values and query-time probes alike.
func TestUpdateEquivalence(t *testing.T) {
	_, newG, prevK, prevS := buildGenerations(t, 0.06)

	// Probe the previous generation before the update: a cached probe list
	// must not reach the next generation, whose answer may differ.
	probes := []struct {
		f Field
		v string
	}{
		{FieldSurname, "quixwor"}, // near the new surname: its list changes
		{FieldFirstName, "zzzz-not-a-name"},
		{FieldLocation, "edinburgh"},
	}
	for _, p := range probes {
		prevS.Similar(p.f, p.v)
	}

	fullK, fullS := Build(newG, 0.5)
	updK, updS, rebuilt := UpdateSubset(newG, nil, prevK, prevS)
	if rebuilt != 0 {
		t.Fatalf("a two-certificate flush rebuilt %d blocks, want both patched", rebuilt)
	}

	if updK.Values(FieldSurname) <= prevK.Values(FieldSurname) {
		t.Fatal("no added values; the new surname was not detected")
	}
	// Both name fields gained values, so both blocks are rewritten (that an
	// untouched field's block is shared is TestSimilarityImmutableAfterPublish's).
	if updS.blocks[FieldSurname] == prevS.blocks[FieldSurname] || updS.blocks[FieldFirstName] == prevS.blocks[FieldFirstName] {
		t.Fatal("a field that gained values shares the previous generation's block")
	}

	// Keyword index: identical value sets and posting lists per field.
	for f := Field(0); f < NumFields; f++ {
		if got, want := updK.Values(f), fullK.Values(f); got != want {
			t.Fatalf("field %v: %d values, full rebuild has %d", f, got, want)
		}
		for _, v := range fullK.vocab(f) {
			got, want := lookup(updK, f, v), lookup(fullK, f, v)
			if len(got) != len(want) {
				t.Fatalf("field %v value %q: postings %v, full rebuild %v", f, v, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("field %v value %q: postings %v, full rebuild %v", f, v, got, want)
				}
			}
		}
	}

	// Similarity index: identical lists for every indexed value of the
	// name fields (covers shared, recomputed, and added values) and for
	// the warmed probes (recomputed against the new generation).
	for _, f := range []Field{FieldFirstName, FieldSurname} {
		for _, v := range fullK.vocab(f) {
			if got, want := updS.similar(f, v), fullS.similar(f, v); !sameSimilar(got, want) {
				t.Fatalf("field %v value %q: Similar = %v, full rebuild = %v", f, v, got, want)
			}
		}
	}
	for _, p := range probes {
		if got, want := updS.similar(p.f, p.v), fullS.similar(p.f, p.v); !sameSimilar(got, want) {
			t.Fatalf("probe %v %q: Similar = %v, full rebuild = %v", p.f, p.v, got, want)
		}
	}

	t.Run("synthetic pages", testRewriteAcrossPages)
}

// testRewriteAcrossPages patches a block with pages: over the synthetic
// vocabulary, a flush removes the two values on either side of a page
// boundary and adds ten new ones, whose entries land in rows of every page.
// The rewritten block has pages of its own, and each of its rows is the
// probe's list and the fresh build's, bit for bit.
func testRewriteAcrossPages(t *testing.T) {
	vocab := syntheticVocabulary(810)
	prevK, prevS := Build(vocabularyGraph(vocab[:800]), 0.5)
	for _, f := range nameFields {
		if pages := len(prevS.blocks[f].pages); pages < 2 {
			t.Fatalf("field %v: the synthetic block has %d page(s)", f, pages)
		}
	}
	// Both name fields index the same values in the same row order.
	at, ranked := prevS.blocks[FieldFirstName].pages[1].first, prevS.ranked[FieldFirstName]
	gone := map[string]bool{symbol.Str(ranked[at-1]): true, symbol.Str(ranked[at]): true}
	vocab = slices.DeleteFunc(vocab, func(v string) bool { return gone[v] })
	g := vocabularyGraph(vocab)
	_, fullS := Build(g, 0.5)
	updK, updS, rebuilt := UpdateSubset(g, nil, prevK, prevS)
	if rebuilt != 0 {
		t.Fatalf("ten added values of 808 rebuilt %d blocks, want both patched", rebuilt)
	}
	for _, f := range nameFields {
		if pages := len(updS.blocks[f].pages); pages < 2 {
			t.Fatalf("field %v: the rewritten block has %d page(s)", f, pages)
		}
		if got, want := size(updS, f), len(vocab); got != want {
			t.Fatalf("field %v: %d rows, want %d", f, got, want)
		}
		for _, v := range updK.vocab(f) {
			got := updS.listOf(f, v)
			if want := updS.probe(f, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("field %v row %q:\nrewritten %v\nprobe     %v", f, v, got, want)
			}
			if want := fullS.listOf(f, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("field %v row %q:\nrewritten   %v\nfresh build %v", f, v, got, want)
			}
		}
	}
}

// TestUpdateSubsetAtTheBound takes a name field to either side of
// rebuildAbove: with that share of the values new the blocks are patched, with
// one more they are rebuilt, and both times K and every precomputed row of S
// equal BuildSubset's, entry for entry. Each node carries a first name and a
// surname no other node does, so the previous generation's missing nodes
// are exactly the added values of both fields.
func TestUpdateSubsetAtTheBound(t *testing.T) {
	const n = 300
	d := dataset.GenerateScale(dataset.ScaleTier(2000)).Dataset
	var firsts, surs []string
	seenF, seenS := map[string]bool{}, map[string]bool{}
	for i := range d.Records {
		r := &d.Records[i]
		if f, s := r.FirstName(), r.Surname(); f != "" && s != "" && !seenF[f] && !seenS[s] {
			seenF[f], seenS[s] = true, true
			firsts, surs = append(firsts, f), append(surs, s)
		}
	}
	if len(firsts) < n {
		t.Fatalf("only %d nodes with a name pair of their own", len(firsts))
	}
	graph := func(nodes int) *pedigree.Graph {
		g := &pedigree.Graph{}
		for i := 0; i < nodes; i++ {
			g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(i),
				FirstNames: []string{firsts[i]}, Surnames: []string{surs[i]}})
		}
		return g
	}
	g := graph(n)
	wantK, wantS := BuildSubset(g, nil, 0.5)
	under := int(rebuildAbove * n)
	for added, wantRebuilt := range map[int]int{under: 0, under + 1: len(nameFields)} {
		prevK, prevS := BuildSubset(graph(n-added), nil, 0.5)
		gotK, gotS, rebuilt := UpdateSubset(g, nil, prevK, prevS)
		if rebuilt != wantRebuilt {
			t.Fatalf("%d of %d values added: %d blocks rebuilt, want %d", added, n, rebuilt, wantRebuilt)
		}
		for f := Field(0); f < NumFields; f++ {
			if got, want := gotK.Values(f), wantK.Values(f); got != want {
				t.Fatalf("%d added, field %v: %d values, fresh build %d", added, f, got, want)
			}
			for _, v := range wantK.vocab(f) {
				if got, want := lookup(gotK, f, v), lookup(wantK, f, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d added, field %v value %q: postings %v, fresh build %v", added, f, v, got, want)
				}
			}
		}
		for _, f := range nameFields {
			if got, want := len(gotS.blocks[f].offsets), len(wantS.blocks[f].offsets); got != want {
				t.Fatalf("%d added, field %v: %d rows, fresh build %d", added, f, got-1, want-1)
			}
			for _, v := range wantK.vocab(f) {
				if got, want := gotS.listOf(f, v), wantS.listOf(f, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d added, field %v row %q: %v, fresh build %v", added, f, v, got, want)
				}
			}
		}
	}
}

// TestUpdateSimilarityRemovesValues exercises the removal path directly:
// record sets are append-only in production so indexed values in practice
// only appear, but Update must stay correct if a value vanishes (e.g. a
// future compaction). A removed value must leave the bigram postings and
// every similarity list that contained it.
func TestUpdateSimilarityRemovesValues(t *testing.T) {
	mk := func(vals ...string) *pedigree.Graph {
		g := &pedigree.Graph{}
		for i, v := range vals {
			g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(i), Surnames: []string{v}})
		}
		return g
	}
	prevK, prevS := Build(mk("anna", "annie", "bert"), 0.5)
	if list := prevS.similar(FieldSurname, "anna"); len(list) < 2 {
		t.Fatalf("precondition: anna should be similar to annie, got %v", list)
	}

	newK := buildKeyword(mk("anna", "bert"), nil) // "annie" removed
	s, _ := updateSimilarity(newK, prevK, prevS, rebuildAbove)
	if s.listOf(FieldSurname, "annie") != nil || size(s, FieldSurname) != 2 {
		t.Fatalf("S holds %d surname lists after the removal, want anna and bert", size(s, FieldSurname))
	}
	for bg, ranks := range s.bigramPost[FieldSurname] {
		for _, r := range ranks {
			if symbol.Str(s.ranked[FieldSurname][r]) == "annie" {
				t.Fatalf("bigram %q still lists removed value annie", bg)
			}
		}
	}
	for _, v := range s.similar(FieldSurname, "anna") {
		if v.Value == "annie" {
			t.Fatal("similarity list for anna still contains removed value annie")
		}
	}
}

// TestBigramPostingsByRank pins what a probe's integer order rests on, for
// a build and for an update carried across a diff: a field's ranks are its
// vocabulary in string order, and a bigram's posting lists, ascending and
// once each, the ranks of exactly the values containing the bigram.
func TestBigramPostingsByRank(t *testing.T) {
	_, newG, prevK, prevS := buildGenerations(t, 0.06)
	newK, newS, _ := UpdateSubset(newG, nil, prevK, prevS)
	for _, c := range []struct {
		name string
		k    *Keyword
		s    *Similarity
	}{{"build", prevK, prevS}, {"update", newK, newS}} {
		for _, f := range simFields {
			ranked := c.s.ranked[f]
			vocab := c.k.vocab(f)
			slices.Sort(vocab)
			if len(ranked) != len(vocab) {
				t.Fatalf("%s %v: %d ranks for %d values", c.name, f, len(ranked), len(vocab))
			}
			for r, id := range ranked {
				if symbol.Str(id) != vocab[r] {
					t.Fatalf("%s %v: rank %d is %q, want %q", c.name, f, r, symbol.Str(id), vocab[r])
				}
			}
			want := map[strsim.BigramID][]uint32{}
			for r, id := range ranked {
				for _, bg := range simcache.Feat(id).Bigrams {
					want[bg] = append(want[bg], uint32(r))
				}
			}
			if len(c.s.bigramPost[f]) != len(want) {
				t.Errorf("%s %v: %d bigram postings, want %d", c.name, f, len(c.s.bigramPost[f]), len(want))
			}
			for bg, got := range c.s.bigramPost[f] {
				if !slices.Equal(got, want[bg]) {
					t.Errorf("%s %v: bigram %d lists ranks %v, want %v", c.name, f, bg, got, want[bg])
				}
			}
		}
	}
}

// TestRewrittenRowsAreRanks pins the layout of a rewritten block: S built
// over one 90% hash subset of the nodes of TestPrecomputeMatchesProbe's
// DS-3k graph is carried to another 90% subset, which both adds and removes
// values of each name field, and row r of every rewritten block is the list
// of the value of rank r, computeSimilar's list for it entry for entry, ids
// and similarities.
func TestRewrittenRowsAreRanks(t *testing.T) {
	g := scaleGraph(3000, 11)
	subset := func(mult uint32) func(pedigree.NodeID) bool {
		return func(id pedigree.NodeID) bool { return uint32(id)*mult%100 < 90 }
	}
	prevK, prevS := BuildSubset(g, subset(2654435761), 0.5)
	k := buildKeyword(g, subset(2246822519))
	s, rebuilt := updateSimilarity(k, prevK, prevS, 1)
	if rebuilt != 0 {
		t.Fatalf("%d blocks rebuilt, want every one rewritten", rebuilt)
	}
	for _, f := range nameFields {
		added, removed := valueDiff(k.fields[f].vals, prevK.fields[f].vals)
		if len(added) == 0 || len(removed) == 0 || s.blocks[f] == prevS.blocks[f] {
			t.Fatalf("field %v: %d values added, %d removed: the carry does not rewrite the block both ways", f, len(added), len(removed))
		}
		ranked := s.ranked[f]
		if rows := len(s.blocks[f].offsets) - 1; rows != len(ranked) {
			t.Fatalf("field %v: %d rows for %d values", f, rows, len(ranked))
		}
		for r, id := range ranked {
			got, want := s.row(f, r), s.computeSimilar(f, symbol.Str(id))
			same := slices.Equal(got.ids, want.ids)
			for i := 0; same && i < got.Len(); i++ {
				same = math.Float64bits(got.Sim(i)) == math.Float64bits(want.Sim(i))
			}
			if !same {
				t.Fatalf("field %v row %d (%q):\nrow   %v\nprobe %v", f, r, symbol.Str(id), values(got), values(want))
			}
		}
	}
}
