package index

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
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
		vals := make([]string, 0, len(k.postings[f]))
		for v := range k.postings[f] {
			vals = append(vals, v)
		}
		lists := make([][]SimilarValue, len(vals))
		par.Range(len(vals), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				lists[i] = s.computeSimilar(f, vals[i])
			}
		})
		ref[f] = make(map[string][]SimilarValue, len(vals))
		for i, v := range vals {
			ref[f][v] = lists[i]
		}
	}
	return ref
}

// TestPrecomputeMatchesProbe is the differential test of the all-pairs
// pass: at a DS tier, over the whole graph and over both halves of a
// two-way partition, for one and several workers, every indexed name's
// precomputed list is the probe's list entry for entry and bit for bit.
func TestPrecomputeMatchesProbe(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{11, 12} {
		g := scaleGraph(3000, seed)
		keeps := []func(pedigree.NodeID) bool{nil, keepFor(g, 0, 2), keepFor(g, 1, 2)}
		for ki, keep := range keeps {
			// The probe reads only the bigram postings, which do not
			// depend on the worker count: one reference serves both builds.
			var ref map[Field]map[string][]SimilarValue
			for _, procs := range []int{4, 1} {
				runtime.GOMAXPROCS(procs)
				k, s := BuildSubset(g, keep, 0.5)
				if ref == nil {
					ref = probeLists(k, s)
				}
				for f, want := range ref {
					if len(want) == 0 || s.Size(f) != len(want) {
						t.Fatalf("seed %d keep %d procs %d field %v: %d precomputed lists for %d values",
							seed, ki, procs, f, s.Size(f), len(want))
					}
					for v, w := range want {
						if got := s.shard(f, v).sims[v]; !reflect.DeepEqual(got, w) {
							t.Fatalf("seed %d keep %d procs %d field %v value %q:\nprecomputed %v\nprobe       %v",
								seed, ki, procs, f, v, got, w)
						}
					}
				}
			}
		}
	}
}

// TestPrecomputeFixture pins the edges of the pass on a hand-built graph: a
// one-letter value (no bigrams: an empty list without even itself), a
// multi-token value (the Monge-Elkan arm of the kernel), and two values
// tying on similarity (value-ascending order).
func TestPrecomputeFixture(t *testing.T) {
	names := []string{"x", "mary ann", "ann mary", "john", "johnb", "johna"}
	g := &pedigree.Graph{}
	for i, v := range names {
		g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(i), FirstNames: []string{v}})
	}
	_, s := Build(g, 0.5)
	list := func(v string) []SimilarValue { return s.shard(FieldFirstName, v).sims[v] }
	for _, v := range names {
		if got, want := list(v), s.computeSimilar(FieldFirstName, v); !reflect.DeepEqual(got, want) {
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
	for v := range prevK.postings[FieldSurname] {
		if prevK.postings[FieldFirstName][v].len() == 0 && !prevS.Memoised(FieldFirstName, v) {
			hits += len(prevS.Similar(FieldFirstName, v))
		}
	}
	if hits == 0 {
		t.Fatal("no surname probe found a similar first name")
	}
	check("a miss-path Similar on an interned value")

	_, _, st := UpdateSubset(newG, nil, prevG, prevK, prevS, 0.5)
	if !st.Incremental || st.AddedValues == 0 {
		t.Fatalf("UpdateSubset did not patch in new values: %+v", st)
	}
	check("UpdateSubset adding values")
}
