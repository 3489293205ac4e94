package index

import (
	"reflect"
	"testing"

	"github.com/snaps/snaps/internal/pedigree"
)

// recordOwner partitions nodes the way the serving shards do: a pure
// function of the node's record set (here: lowest record id mod n), so a
// clean node keeps its owner across generations and every node that moves
// between subsets is necessarily dirty.
func recordOwner(g *pedigree.Graph, id pedigree.NodeID, n int) int {
	recs := g.Node(id).Records
	if len(recs) == 0 {
		return 0
	}
	min := recs[0]
	for _, r := range recs[1:] {
		if r < min {
			min = r
		}
	}
	return int(min) % n
}

func keepFor(g *pedigree.Graph, shard, n int) func(pedigree.NodeID) bool {
	return func(id pedigree.NodeID) bool { return recordOwner(g, id, n) == shard }
}

// TestBuildSubsetPartitionsGlobal: for several partition counts, each
// subset's postings must be exactly the global postings filtered to kept
// nodes, and the union across subsets must reproduce the global index —
// no entity lost, duplicated, or misfiled.
func TestBuildSubsetPartitionsGlobal(t *testing.T) {
	g, k, _ := builtIndexes(t)
	for _, n := range []int{2, 4, 7} {
		union := map[Field]map[string][]pedigree.NodeID{}
		for f := Field(0); f < NumFields; f++ {
			union[f] = map[string][]pedigree.NodeID{}
		}
		for shard := 0; shard < n; shard++ {
			keep := keepFor(g, shard, n)
			sk, _ := BuildSubset(g, keep, 0.5)
			for f := Field(0); f < NumFields; f++ {
				for v, pl := range sk.postings[f] {
					ids := pl.decode()
					for _, id := range ids {
						if !keep(id) {
							t.Fatalf("n=%d shard %d field %v value %q: posting holds foreign node %d",
								n, shard, f, v, id)
						}
					}
					union[f][v] = append(union[f][v], ids...)
				}
			}
		}
		// Subset postings are sorted and the subsets are disjoint, so the
		// concatenated union sorted once must equal the global postings.
		for f := Field(0); f < NumFields; f++ {
			if len(union[f]) != len(k.postings[f]) {
				t.Fatalf("n=%d field %v: union has %d values, global %d",
					n, f, len(union[f]), len(k.postings[f]))
			}
			for v, wantPL := range k.postings[f] {
				want := wantPL.decode()
				got := append([]pedigree.NodeID(nil), union[f][v]...)
				sortNodeIDs(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d field %v value %q: union %v, global %v", n, f, v, got, want)
				}
			}
		}
	}
}

func sortNodeIDs(ids []pedigree.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// TestBuildSubsetSimilarityIsFilteredGlobal pins the float-determinism
// contract the scatter-gather merge depends on: a shard's similarity list
// for any value it indexes is the GLOBAL list filtered to values the shard
// indexes — same order, bit-identical similarities — because both are
// computed by the same pure function of the value pair.
func TestBuildSubsetSimilarityIsFilteredGlobal(t *testing.T) {
	g, _, s := builtIndexes(t)
	const n = 4
	for shard := 0; shard < n; shard++ {
		sk, ss := BuildSubset(g, keepFor(g, shard, n), 0.5)
		for _, f := range []Field{FieldFirstName, FieldSurname} {
			checked := 0
			for v := range sk.postings[f] {
				got := ss.similar(f, v)
				var want []SimilarValue
				for _, sv := range s.similar(f, v) {
					if sk.postings[f][sv.Value].n > 0 {
						want = append(want, sv)
					}
				}
				if !sameSimilar(got, want) {
					t.Fatalf("shard %d field %v value %q:\nshard list  %v\nfiltered global %v",
						shard, f, v, got, want)
				}
				checked++
				if checked >= 50 {
					break
				}
			}
			if checked == 0 {
				t.Fatalf("shard %d field %v: no values to check", shard, f)
			}
		}
	}
}

// TestUpdateSubsetEquivalentToBuildSubset grows a generation the way an
// ingest flush does and asserts, per partition, that patching the previous
// subset indexes (UpdateSubset) answers Lookup and Similar identically to
// a from-scratch BuildSubset of the new graph.
func TestUpdateSubsetEquivalentToBuildSubset(t *testing.T) {
	prevG, newG, _, _ := buildGenerations(t, 0.05)
	const n = 4
	for shard := 0; shard < n; shard++ {
		prevK, prevS := BuildSubset(prevG, keepFor(prevG, shard, n), 0.5)
		gotK, gotS, _ := UpdateSubset(newG, keepFor(newG, shard, n), prevK, prevS)
		wantK, wantS := BuildSubset(newG, keepFor(newG, shard, n), 0.5)

		for f := Field(0); f < NumFields; f++ {
			if len(gotK.postings[f]) != len(wantK.postings[f]) {
				t.Fatalf("shard %d field %v: %d values incremental, %d fresh",
					shard, f, len(gotK.postings[f]), len(wantK.postings[f]))
			}
			for v, wantPL := range wantK.postings[f] {
				want := wantPL.decode()
				if got := gotK.Lookup(f, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("shard %d field %v value %q: incremental postings %v, fresh %v",
						shard, f, v, got, want)
				}
			}
		}
		for _, f := range []Field{FieldFirstName, FieldSurname} {
			for v := range wantK.postings[f] {
				if got, want := gotS.similar(f, v), wantS.similar(f, v); !sameSimilar(got, want) {
					t.Fatalf("shard %d field %v value %q: incremental similar %v, fresh %v",
						shard, f, v, got, want)
				}
			}
			// Probe values neither generation indexed: the lazy path must
			// agree too.
			for _, probe := range []string{"zqprobe", "quixwor"} {
				if got, want := gotS.similar(f, probe), wantS.similar(f, probe); !sameSimilar(got, want) {
					t.Fatalf("shard %d field %v probe %q: incremental similar %v, fresh %v",
						shard, f, probe, got, want)
				}
			}
		}
	}
}
