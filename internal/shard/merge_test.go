package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

// TestRouteProperties pins the router contract: deterministic, in range,
// degenerate at one shard, and sensitive to both name components.
func TestRouteProperties(t *testing.T) {
	keys := [][2]string{
		{"mary", "macdonald"}, {"", ""}, {"mary", ""}, {"", "macdonald"},
		{"seán", "ó dómhnaill"}, {"a", "b"}, {"ab", ""}, {"a", "b|c"},
	}
	for _, k := range keys {
		if got := Route(k[0], k[1], 1); got != 0 {
			t.Fatalf("Route(%q, %q, 1) = %d, want 0", k[0], k[1], got)
		}
		for _, n := range []int{2, 3, 7, 16, 64} {
			a := Route(k[0], k[1], n)
			if a < 0 || a >= n {
				t.Fatalf("Route(%q, %q, %d) = %d out of range", k[0], k[1], n, a)
			}
			if b := Route(k[0], k[1], n); b != a {
				t.Fatalf("Route(%q, %q, %d) unstable: %d then %d", k[0], k[1], n, a, b)
			}
		}
	}
	// The separator matters: ("ab", "c") and ("a", "bc") are different
	// blocking keys and must hash as such.
	same := true
	for _, n := range []int{16, 64, 1024} {
		if Route("ab", "c", n) != Route("a", "bc", n) {
			same = false
		}
	}
	if same {
		t.Fatal("Route ignores the first/surname boundary")
	}
}

// refMerge is the oracle for mergeRanked: concatenate, full sort with the
// engine's comparator, trim to m.
func refMerge(parts [][]query.Result, m int) []query.Result {
	var all []query.Result
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return query.RankBetter(all[i], all[j]) })
	if m > 0 && len(all) > m {
		all = all[:m]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

// TestMergeRankedMatchesSort drives the k-way merge against the sort oracle
// over randomised shard rankings, including score ties broken by entity id,
// empty shards, and every top-m regime.
func TestMergeRankedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nparts := 1 + rng.Intn(8)
		parts := make([][]query.Result, nparts)
		next := pedigree.NodeID(0)
		for p := range parts {
			n := rng.Intn(6)
			for i := 0; i < n; i++ {
				// Coarse scores force frequent ties across shards.
				parts[p] = append(parts[p], query.Result{
					Entity: next, Score: float64(rng.Intn(4)) * 10,
				})
				next++
			}
			// Each shard's list arrives already ranked.
			sort.Slice(parts[p], func(i, j int) bool { return query.RankBetter(parts[p][i], parts[p][j]) })
		}
		for _, m := range []int{0, 1, 3, 20} {
			var snapshot [][]query.Result
			for _, p := range parts {
				snapshot = append(snapshot, append([]query.Result(nil), p...))
			}
			got := mergeRanked(parts, m)
			want := refMerge(parts, m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d m=%d: merge %v, sort %v", trial, m, got, want)
			}
			// The inputs are never mutated.
			for p := range parts {
				if !reflect.DeepEqual(parts[p], snapshot[p]) {
					t.Fatalf("trial %d m=%d: mergeRanked mutated shard %d's ranking", trial, m, p)
				}
			}
		}
	}
}
