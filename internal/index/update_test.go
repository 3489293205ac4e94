package index

import (
	"reflect"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/store"
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
	if b := s.blocks[f]; b != nil {
		if r, ok := b.rows[v]; ok {
			return values(b.row(r))
		}
	}
	return nil
}

// TestUpdateEquivalence is the structural golden guard for incremental
// index maintenance: Update must answer every Lookup and Similar exactly
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
		for v, wantPL := range fullK.postings[f] {
			got, want := updK.Lookup(f, v), wantPL.decode()
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
		for v := range fullK.postings[f] {
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
}

// TestUpdateSubsetAtTheBound takes a name field to either side of
// rebuildAbove: with a tenth of the values new the blocks are patched, with
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
			for v, pl := range wantK.postings[f] {
				if got, want := gotK.Lookup(f, v), pl.decode(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d added, field %v value %q: postings %v, fresh build %v", added, f, v, got, want)
				}
			}
		}
		for _, f := range nameFields {
			if got, want := len(gotS.blocks[f].vals), len(wantS.blocks[f].vals); got != want {
				t.Fatalf("%d added, field %v: %d rows, fresh build %d", added, f, got, want)
			}
			for v := range wantS.blocks[f].rows {
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
	if s.listOf(FieldSurname, "annie") != nil || s.Size(FieldSurname) != 2 {
		t.Fatalf("S holds %d surname lists after the removal, want anna and bert", s.Size(FieldSurname))
	}
	for bg, vals := range s.bigramPost[FieldSurname] {
		for it := vals.iter(); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			if symbol.Str(id) == "annie" {
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
