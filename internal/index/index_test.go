package index

import (
	"fmt"
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/symbol"
)

// lookup returns the entities of K carrying the exact value in the field,
// in a fresh slice the test may keep or mutate; nil when there are none.
func lookup(k *Keyword, f Field, value string) []pedigree.NodeID {
	if id, ok := symbol.Lookup(value); ok {
		if e := k.Entities(f, id); len(e) > 0 {
			return slices.Clone(e)
		}
	}
	return nil
}

// size is the number of similarity lists S holds for a field: the
// precomputed ones plus the occupied probe-cache slots.
func size(s *Similarity, f Field) int {
	n := 0
	if s.blocks[f] != nil {
		n = len(s.ranked[f])
	}
	for i := range s.probes[f] {
		if s.probes[f][i].Load() != nil {
			n++
		}
	}
	return n
}

func builtIndexes(t *testing.T) (*pedigree.Graph, *Keyword, *Similarity) {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(0.06))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(p.Dataset, pr.Result.Store)
	k, s := Build(g, 0.5)
	return g, k, s
}

func TestKeywordLookupConsistent(t *testing.T) {
	g, k, _ := builtIndexes(t)
	if k.Values(FieldFirstName) == 0 || k.Values(FieldSurname) == 0 {
		t.Fatal("empty keyword index")
	}
	// Every entity must be findable under each of its first names.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, fn := range n.FirstNames {
			found := false
			for _, id := range lookup(k, FieldFirstName, fn) {
				if id == n.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("entity %d missing from posting of its first name %q", n.ID, fn)
			}
		}
	}
}

// TestKeywordTransposeMatchesNodes checks K's transpose against the graph,
// over the whole graph and over a shard's subset: a name field gives each
// kept entity the ids of its values in pedigree.Node's order, each row of
// the field lists the entity, and every id is below IDLimit. Other fields
// and entities outside the subset have none.
func TestKeywordTransposeMatchesNodes(t *testing.T) {
	g, _, _ := builtIndexes(t)
	odd := func(n pedigree.NodeID) bool { return n%2 == 1 }
	for _, keep := range []func(pedigree.NodeID) bool{nil, odd} {
		k := buildKeyword(g, keep)
		for i := range g.Nodes {
			n := &g.Nodes[i]
			for f, values := range map[Field][]string{FieldFirstName: n.FirstNames, FieldSurname: n.Surnames, FieldLocation: nil} {
				if keep != nil && !keep(n.ID) {
					values = nil
				}
				got := k.NodeValues(f, n.ID)
				if len(got) != len(values) {
					t.Fatalf("%v of entity %d: %d transposed values, want %d", f, n.ID, len(got), len(values))
				}
				for j, id := range got {
					if symbol.Str(id) != values[j] || int(id) >= k.IDLimit(f) || !slices.Contains(k.Entities(f, id), n.ID) {
						t.Fatalf("%v of entity %d: transposed value %d is %q, want %q listing the entity", f, n.ID, j, symbol.Str(id), values[j])
					}
				}
			}
		}
	}
}

func TestKeywordPostingsSortedDeduped(t *testing.T) {
	_, k, _ := builtIndexes(t)
	for f := Field(0); f < NumFields; f++ {
		kf, total := &k.fields[f], 0
		if !slices.IsSorted(kf.vals) {
			t.Fatalf("field %v: vocabulary not in id order", f)
		}
		for _, id := range kf.vals {
			ids := k.Entities(f, id)
			if len(ids) == 0 {
				t.Fatalf("field %v lists %q with no entities", f, symbol.Str(id))
			}
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("postings for %v=%q not sorted/deduped", f, symbol.Str(id))
				}
			}
			total += len(ids)
		}
		if total != len(kf.nodes) {
			t.Fatalf("field %v: the vocabulary's rows hold %d postings of %d", f, total, len(kf.nodes))
		}
	}
}

// vocab lists the values the field of K indexes, in id order.
func (k *Keyword) vocab(f Field) []string {
	out := make([]string, len(k.fields[f].vals))
	for i, id := range k.fields[f].vals {
		out[i] = symbol.Str(id)
	}
	return out
}

// TestKeywordEdgeCases: K is addressed by symbol id, and every id that
// reaches it without a row of the field has no entities, by a bounds check
// or an empty row, never a panic: an id at or past the end of the offsets,
// a value only another subset indexes, any id of a field with no values.
// Gender is indexed under its string like the names.
func TestKeywordEdgeCases(t *testing.T) {
	g, k, _ := builtIndexes(t)
	past := symbol.ID(len(k.fields[FieldSurname].offsets))
	for _, id := range []symbol.ID{past - 1, past, past + 1, 1<<32 - 1} {
		if e := k.Entities(FieldSurname, id); len(e) != 0 {
			t.Fatalf("id %d at or past the end of %d offsets has entities %v", id, past, e)
		}
	}
	for _, id := range k.fields[FieldSurname].vals[:3] {
		if e := k.Entities(FieldYear, id); e != nil {
			t.Fatalf("the empty year field has entities %v for %q", e, symbol.Str(id))
		}
	}
	if k.Values(FieldYear) != 0 || lookup(k, FieldYear, "1880") != nil {
		t.Fatal("the year field holds values")
	}

	// Split the entities in two: a surname only the other half carries is
	// interned and inside the first half's id range, and has no entities.
	half := func(id pedigree.NodeID) bool { return id%2 == 0 }
	k0, _ := BuildSubset(g, half, 0.5)
	k1, _ := BuildSubset(g, func(id pedigree.NodeID) bool { return !half(id) }, 0.5)
	foreign := 0
	for _, id := range k1.fields[FieldSurname].vals {
		if len(k0.Entities(FieldSurname, id)) == 0 {
			foreign++
			if v := symbol.Str(id); lookup(k0, FieldSurname, v) != nil || len(lookup(k1, FieldSurname, v)) == 0 {
				t.Fatalf("surname %q: lookup disagrees with Entities across the halves", v)
			}
		}
	}
	if foreign == 0 {
		t.Fatal("no surname is carried by one half only")
	}

	// Gender: exactly the entities of each gender, under its string.
	for _, gd := range []model.Gender{model.Male, model.Female} {
		var want []pedigree.NodeID
		for i := range g.Nodes {
			if g.Nodes[i].Gender == gd {
				want = append(want, g.Nodes[i].ID)
			}
		}
		id, _ := symbol.Lookup(gd.String())
		if got := k.Entities(FieldGender, id); len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("gender %v: %d entities, want %d", gd, len(got), len(want))
		}
	}
	if n := k.Values(FieldGender); n != 2 {
		t.Fatalf("the gender field indexes %d values, want 2", n)
	}
}

func TestSimilarIncludesSelfFirst(t *testing.T) {
	_, k, s := builtIndexes(t)
	name := k.vocab(FieldSurname)[0]
	sims := s.similar(FieldSurname, name)
	if len(sims) == 0 {
		t.Fatal("no similar values for an indexed name")
	}
	if sims[0].Value != name || sims[0].Sim != 1 {
		t.Errorf("self should rank first with sim 1, got %+v", sims[0])
	}
	for i := 1; i < len(sims); i++ {
		if sims[i].Sim > sims[i-1].Sim {
			t.Fatal("similar values not sorted by similarity")
		}
		if sims[i].Sim < 0.5 {
			t.Fatalf("similarity %v below threshold retained", sims[i].Sim)
		}
	}
}

func TestSimilarUnknownValueMemoised(t *testing.T) {
	_, _, s := builtIndexes(t)
	before := size(s, FieldFirstName)
	out1 := s.similar(FieldFirstName, "zzyzxq")
	after := size(s, FieldFirstName)
	if after != before+1 {
		t.Errorf("unknown probe should be memoised: %d -> %d", before, after)
	}
	out2 := s.similar(FieldFirstName, "zzyzxq")
	if len(out1) != len(out2) {
		t.Error("memoised result differs")
	}
}

func TestSimilarFindsMisspellings(t *testing.T) {
	_, k, s := builtIndexes(t)
	// Pick a reasonably long surname from the index and misspell it.
	var name string
	for _, v := range k.vocab(FieldSurname) {
		if len(v) >= 8 {
			name = v
			break
		}
	}
	if name == "" {
		t.Skip("no long surname in sample")
	}
	misspelt := name[:len(name)-1] + "x"
	found := false
	for _, sv := range s.similar(FieldSurname, misspelt) {
		if sv.Value == name {
			found = true
		}
	}
	if !found {
		t.Errorf("misspelling %q did not retrieve %q", misspelt, name)
	}
}

func TestFieldString(t *testing.T) {
	names := map[Field]string{
		FieldFirstName: "first_name", FieldSurname: "surname",
		FieldLocation: "location", FieldGender: "gender", FieldYear: "year",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("Field(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestSimilarConcurrentAccess(t *testing.T) {
	_, _, s := builtIndexes(t)
	// Hammer the index from many goroutines with a mix of known and
	// unknown probes; the race detector validates the lock-free probe cache.
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			probes := []string{"macdonald", "mcdonald", "zzznovel", "smith", "smyth"}
			for i := 0; i < 50; i++ {
				p := probes[(i+g)%len(probes)]
				if i%3 == 0 {
					p = p + string(rune('a'+g))
				}
				s.Similar(FieldSurname, p)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// raceEnabled is set by raceon_test.go under -race, where allocation counts
// mean nothing.
var raceEnabled bool

// TestSimilarAllocsZero: a lookup of an indexed value and a walk over every
// entry of the returned view read the block in place.
func TestSimilarAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, k, s := builtIndexes(t)
	name := k.vocab(FieldSurname)[0]
	entries, chars := 0, 0
	allocs := testing.AllocsPerRun(200, func() {
		l := s.Similar(FieldSurname, name)
		for i := 0; i < l.Len(); i++ {
			entries++
			chars += len(l.At(i).Value)
		}
	})
	if allocs != 0 || entries == 0 || chars == 0 {
		t.Errorf("Similar(%q) and a walk of its %d entries: %v allocations, want 0", name, entries/201, allocs)
	}
}

// TestSimilarMissAllocs is the ceiling of the typo path: a lookup of a
// value S has never seen probes it and caches the list. The list's three
// arrays (ids, codes and its own table), the cache entry and the entry's
// copy of the value are the five allocations; the probe's scratch is
// pooled and its token split is on the stack.
func TestSimilarMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, _, s := builtIndexes(t)
	const runs = 200
	typos := make([]string, runs+1)
	for i := range typos {
		typos[i] = fmt.Sprintf("macdonal%dx", i)
	}
	i, entries := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		l := s.Similar(FieldSurname, typos[i])
		if !l.Computed {
			t.Fatalf("Similar(%q) did not probe", typos[i])
		}
		entries += l.Len()
		i++
	})
	if allocs > 5 || entries == 0 {
		t.Errorf("Similar on %d unknown values (%d entries): %v allocations each, want at most 5", runs+1, entries, allocs)
	}
}

// TestSimilarListSim: asking a list's table about one value answers what a
// walk of the list would — every listed value's similarity, nothing for a
// value it does not list, interned or not — and a refilled table forgets
// the list before.
func TestSimilarListSim(t *testing.T) {
	_, k, s := builtIndexes(t)
	vocab := k.vocab(FieldSurname)
	var table SimTable
	if _, ok := table.Sim(vocab[0]); ok {
		t.Fatal("the zero table lists a value")
	}
	for _, name := range vocab[:2] {
		l := s.Similar(FieldSurname, name)
		table.Reset(l)
		listed := map[string]bool{}
		for i := 0; i < l.Len(); i++ {
			sv := l.At(i)
			listed[sv.Value] = true
			if got, ok := table.Sim(sv.Value); !ok || got != sv.Sim {
				t.Fatalf("Sim(%q) = %v, %v; the list holds %v", sv.Value, got, ok, sv.Sim)
			}
			if id, sim, exact := l.Entry(i); symbol.Str(id) != sv.Value || sim != sv.Sim || exact != (sv.Value == name) {
				t.Fatalf("Entry(%d) = %q, %v, %v; At says %+v for a lookup of %q", i, symbol.Str(id), sim, exact, sv, name)
			}
		}
		for _, v := range vocab {
			if _, ok := table.Sim(v); ok != listed[v] {
				t.Fatalf("Sim(%q) listed = %v, a walk says %v", v, ok, listed[v])
			}
		}
		if _, ok := table.Sim("zq-nobody-interned-this"); ok {
			t.Fatal("Sim found a value nobody interned")
		}
	}
}
