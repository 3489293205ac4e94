package index

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// scaleGraph resolves a DS-tier population the way the benchmark's serve
// tier does: GenerateScale → er.RunLSH(ScaleLSHConfig) → pedigree.Build.
func scaleGraph(certs int, seed int64) *pedigree.Graph {
	cfg := dataset.ScaleTier(certs)
	cfg.Seed = seed
	d := dataset.GenerateScale(cfg).Dataset
	pr := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig())
	return pedigree.Build(d, pr.Result.Store)
}

// probeLists runs the one-sided probe for every indexed name of the build:
// the reference the precomputed lists are compared against.
func probeLists(k *Keyword, s *Similarity) map[Field]map[string][]SimilarValue {
	ref := map[Field]map[string][]SimilarValue{}
	for _, f := range []Field{FieldFirstName, FieldSurname} {
		vals := k.vocab(f)
		lists := make([][]SimilarValue, len(vals))
		par.Range(len(vals), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				lists[i] = s.probe(f, vals[i])
			}
		})
		ref[f] = make(map[string][]SimilarValue, len(vals))
		for i, v := range vals {
			ref[f][v] = lists[i]
		}
	}
	return ref
}

// syntheticVocabulary returns n distinct names from a universe no name
// generator resembles: one to three tokens of 3–16 letters over a
// six-letter alphabet, drawn from a fixed seed. Nearly every pair shares a
// bigram, and the lists of the first 800 at s_t = 0.5 hold 95,346 distinct
// similarity values in 580,244 entries — more than one page's table can
// code, so a block of them has several pages whatever GOMAXPROCS is (three
// at 1).
func syntheticVocabulary(n int) []string {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		tokens := make([]string, 1+rng.Intn(3))
		for i := range tokens {
			b := make([]byte, 3+rng.Intn(14))
			for j := range b {
				b[j] = "abcdef"[rng.Intn(6)]
			}
			tokens[i] = string(b)
		}
		if v := strings.Join(tokens, " "); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// vocabularyGraph has one node per value, carrying it as its first name
// and its surname.
func vocabularyGraph(vals []string) *pedigree.Graph {
	g := &pedigree.Graph{}
	for i, v := range vals {
		g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(i), FirstNames: []string{v}, Surnames: []string{v}})
	}
	return g
}

// TestPrecomputeMatchesProbe is the differential test of the all-pairs
// pass: at a DS tier, over the whole graph and over both halves of a
// two-way partition, and over the synthetic vocabulary whose blocks are
// split into pages, for one and several workers, every indexed name's
// precomputed list is the probe's list entry for entry and bit for bit.
func TestPrecomputeMatchesProbe(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type input struct {
		name  string
		g     *pedigree.Graph
		keep  func(pedigree.NodeID) bool
		paged bool // every name block must have at least two pages
	}
	var inputs []input
	for _, seed := range []int64{11, 12} {
		g := scaleGraph(3000, seed)
		inputs = append(inputs,
			input{fmt.Sprintf("seed %d", seed), g, nil, false},
			input{fmt.Sprintf("seed %d half 0", seed), g, keepFor(g, 0, 2), false},
			input{fmt.Sprintf("seed %d half 1", seed), g, keepFor(g, 1, 2), false})
	}
	inputs = append(inputs, input{"synthetic", vocabularyGraph(syntheticVocabulary(800)), nil, true})
	for _, in := range inputs {
		// The probe reads only the bigram postings, which do not depend on
		// the worker count: one reference serves both builds.
		var ref map[Field]map[string][]SimilarValue
		for _, procs := range []int{4, 1} {
			runtime.GOMAXPROCS(procs)
			k, s := BuildSubset(in.g, in.keep, 0.5)
			if ref == nil {
				ref = probeLists(k, s)
			}
			for f, want := range ref {
				if len(want) == 0 || size(s, f) != len(want) {
					t.Fatalf("%s procs %d field %v: %d precomputed lists for %d values", in.name, procs, f, size(s, f), len(want))
				}
				if pages := len(s.blocks[f].pages); in.paged && pages < 2 {
					t.Fatalf("%s procs %d field %v: %d page(s)", in.name, procs, f, pages)
				}
				for v, w := range want {
					if got := s.listOf(f, v); !reflect.DeepEqual(got, w) {
						t.Fatalf("%s procs %d field %v value %q:\nprecomputed %v\nprobe       %v", in.name, procs, f, v, got, w)
					}
				}
			}
		}
	}
}

// TestPrecomputeFixture pins the edges of the pass on a hand-built graph: a
// one-letter value (no bigrams: an empty list without even itself), a
// multi-token value (the Monge-Elkan arm of the kernel), two values tying
// on similarity (value-ascending order), two differing only in the last
// bits of it, and values too long for the match tables.
func TestPrecomputeFixture(t *testing.T) {
	names := []string{"x", "mary ann", "ann mary", "john", "johnb", "johna"}
	long := strings.Repeat("wilhelmina jacoba ", 4)
	surnames := []string{"john", "bjohn", "jon", long + "of uist", long + "of harris"}
	g := &pedigree.Graph{}
	for i, v := range names {
		g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(i), FirstNames: []string{v}})
	}
	for _, v := range surnames {
		g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(len(g.Nodes)), Surnames: []string{v}})
	}
	_, s := Build(g, 0.5)
	list := func(v string) []SimilarValue { return s.listOf(FieldFirstName, v) }
	for _, v := range names {
		if got, want := list(v), s.probe(FieldFirstName, v); !reflect.DeepEqual(got, want) {
			t.Errorf("value %q:\nprecomputed %v\nprobe       %v", v, got, want)
		}
	}
	if got := list("x"); got == nil || len(got) != 0 {
		t.Errorf(`list("x") = %#v, want empty and non-nil`, got)
	}
	// Jaro-Winkler alone puts the swapped forenames well under 1.
	if got, want := list("mary ann"), []SimilarValue{{"ann mary", 1}, {"mary ann", 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf(`list("mary ann") = %v, want %v`, got, want)
	}
	got := list("john")
	if len(got) != 3 || got[0] != (SimilarValue{"john", 1}) ||
		got[1].Value != "johna" || got[2].Value != "johnb" || got[1].Sim != got[2].Sim {
		t.Errorf(`list("john") = %v, want john, then johna and johnb tied`, got)
	}

	// The surname field holds the cases of the integer-keyed order: "jon"
	// beats "bjohn" against "john" by one unit in the last place — inside
	// the bits the sort key gives to the rank, so the key order alone would
	// put them in value order — and two values over 64 bytes, which the
	// match tables do not cover.
	sur := func(v string) []SimilarValue { return s.listOf(FieldSurname, v) }
	near, far := strsim.NameSim("john", "jon"), strsim.NameSim("john", "bjohn")
	if n := uint(bits.Len(uint(len(surnames)))); near <= far || math.Float64bits(near)>>n != math.Float64bits(far)>>n {
		t.Fatalf("fixture lost its near tie: jon %v (%x), bjohn %v (%x)", near, math.Float64bits(near), far, math.Float64bits(far))
	}
	if got, want := sur("john"), []SimilarValue{{"john", 1}, {"jon", near}, {"bjohn", far}}; !reflect.DeepEqual(got, want) {
		t.Errorf(`surname list("john") = %v, want %v`, got, want)
	}
	long, long2 := surnames[3], surnames[4]
	if got, want := sur(long), []SimilarValue{{long, 1}, {long2, strsim.NameSim(long, long2)}}; len(long) <= 64 || !reflect.DeepEqual(got, want) {
		t.Errorf("list of a %d-byte surname = %v, want %v", len(long), got, want)
	}
	for _, v := range surnames {
		if got, want := sur(v), s.probe(FieldSurname, v); !reflect.DeepEqual(got, want) {
			t.Errorf("surname %q:\nprecomputed %v\nprobe       %v", v, got, want)
		}
	}
}

// TestProbeMatchesKernel: at a DS tier, for every ordered pair of indexed
// names of both fields, the match-table probe the index scores with returns
// the float of the kernel it replaced — NameSimFeatures when set from the
// value's features (from either side: the precompute writes one score into
// both lists), strsim.NameSim when set from the raw string, the way a
// query for a name no record carries is scored.
func TestProbeMatchesKernel(t *testing.T) {
	k, _ := Build(scaleGraph(3000, 11), 0.5)
	for _, f := range []Field{FieldFirstName, FieldSurname} {
		var feats []*simcache.Features
		for _, id := range k.fields[f].vals {
			feats = append(feats, simcache.Feat(id))
		}
		if len(feats) < 500 {
			t.Fatalf("field %v: only %d values", f, len(feats))
		}
		par.Range(len(feats), func(lo, hi int) {
			var p, raw simcache.Probe
			for _, fi := range feats[lo:hi] {
				p.Set(fi)
				raw.SetString(fi.Str)
				for _, fj := range feats {
					want := simcache.NameSimFeatures(fj, fi)
					if got := p.Sim(fj); got != want || simcache.NameSimFeatures(fi, fj) != want {
						t.Errorf("field %v: Probe(%q).Sim(%q) = %v, NameSimFeatures = %v / %v swapped",
							f, fi.Str, fj.Str, got, want, simcache.NameSimFeatures(fi, fj))
						return
					}
					if got, want := raw.Sim(fj), strsim.NameSim(fi.Str, fj.Str); got != want {
						t.Errorf("field %v: raw Probe(%q).Sim(%q) = %v, strsim.NameSim = %v", f, fi.Str, fj.Str, got, want)
						return
					}
				}
			}
		})
	}
}

// TestProbeNeverInterns pins the rule computeSimilar states: a query for a
// name nobody carries is scored from the raw string — it enters neither
// the symbol table nor the feature slab nor the pair memo, or a stream of
// made-up names would grow all three without bound.
func TestProbeNeverInterns(t *testing.T) {
	_, _, s := builtIndexes(t)
	syms, memo := symbol.Len(), simcache.MemoEntries()
	for _, v := range []string{"jonhxq", "mary annxq", "xq\tjohn  william"} {
		if _, ok := symbol.Lookup(v); ok {
			t.Fatalf("%q is already interned", v)
		}
		if l := s.Similar(FieldFirstName, v); l.Len() == 0 || !l.Computed {
			t.Fatalf("Similar(%q) found nothing or did not compute: the probe scored no candidate", v)
		}
		if s.Similar(FieldFirstName, v).Computed {
			t.Fatalf("Similar(%q) did not extend S", v)
		}
	}
	if got := symbol.Len(); got != syms {
		t.Errorf("unknown probes grew the symbol table from %d to %d", syms, got)
	}
	if got := simcache.MemoEntries(); got != memo {
		t.Errorf("unknown probes moved simcache.MemoEntries() from %d to %d", memo, got)
	}
}

// TestIndexLeavesKernelMemoUntouched: the index scores with the unmemoised
// kernel on every path, so the process-wide memo ER fills is neither read
// for the index's benefit nor grown by it.
func TestIndexLeavesKernelMemoUntouched(t *testing.T) {
	prevG, newG, _, _ := buildGenerations(t, 0.05)
	before := simcache.MemoEntries()
	check := func(step string) {
		t.Helper()
		if got := simcache.MemoEntries(); got != before {
			t.Fatalf("%s moved simcache.MemoEntries() from %d to %d", step, before, got)
		}
	}

	prevK, prevS := Build(prevG, 0.5)
	check("Build")

	// Miss-path Similar on interned values: surnames, which the first-name
	// field neither indexes nor precomputes.
	hits := 0
	for _, v := range prevK.vocab(FieldSurname) {
		if lookup(prevK, FieldFirstName, v) == nil {
			if l := prevS.Similar(FieldFirstName, v); l.Computed {
				hits += l.Len()
			}
		}
	}
	if hits == 0 {
		t.Fatal("no surname probe found a similar first name")
	}
	check("a miss-path Similar on an interned value")

	updK, _, _ := UpdateSubset(newG, nil, prevK, prevS)
	if updK.Values(FieldSurname) <= prevK.Values(FieldSurname) {
		t.Fatal("UpdateSubset did not patch in new values")
	}
	check("UpdateSubset adding values")
}
