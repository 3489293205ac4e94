package index

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/snaps/snaps/internal/pedigree"
)

// TestBuildDeterministic proves the parallel name-similarity precompute
// yields the same index as a serial build: every memoised list must be
// identical across two independent builds.
func TestBuildDeterministic(t *testing.T) {
	g, _, s1 := builtIndexes(t)
	_, s2 := Build(g, 0.5)
	for _, f := range []Field{FieldFirstName, FieldSurname} {
		if s1.Size(f) != s2.Size(f) {
			t.Fatalf("field %v: memo sizes differ: %d vs %d", f, s1.Size(f), s2.Size(f))
		}
		for i := range s1.shards[f] {
			sh := &s1.shards[f][i]
			for v, want := range sh.sims {
				got := s2.shard(f, v).sims[v]
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("field %v value %q: precomputed lists differ:\n%v\nvs\n%v", f, v, want, got)
				}
			}
		}
	}
}

// TestSimilarSingleflight hammers one unknown value from many goroutines:
// all of them must receive the identical (shared) list, and the miss
// counter must move by far less than the goroutine count, proving the
// concurrent computations were deduplicated onto one leader.
func TestSimilarSingleflight(t *testing.T) {
	_, _, s := builtIndexes(t)
	const goroutines = 32
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		outs  [goroutines][]SimilarValue
	)
	var before = mMemoMisses.Value()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			outs[g] = s.Similar(FieldSurname, "zqvxsingleflight")
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(outs[0], outs[g]) {
			t.Fatalf("goroutine %d received a different list", g)
		}
	}
	// The value lands in one shard: exactly one computation can win the
	// leader slot at a time, so misses can only grow by a handful (the
	// goroutines that arrived after the leader finished hit the memo).
	if got := mMemoMisses.Value() - before; got > 3 {
		t.Errorf("expected ~1 computation for %d concurrent probes, misses grew by %d", goroutines, got)
	}
	if !s.Memoised(FieldSurname, "zqvxsingleflight") {
		t.Error("probe not memoised after the stampede")
	}
}

// TestSimilarShardedConcurrentMix drives hits, misses, and same-value
// stampedes across shards under the race detector.
func TestSimilarShardedConcurrentMix(t *testing.T) {
	_, k, s := builtIndexes(t)
	var known string
	for v := range k.postings[FieldSurname] {
		known = v
		break
	}
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			probes := []string{known, "zzstampede", "macdonald", "zqnovel" + string(rune('a'+g%4))}
			for i := 0; i < 60; i++ {
				out := s.Similar(FieldSurname, probes[(i+g)%len(probes)])
				total.Add(int64(len(out)))
			}
		}(g)
	}
	wg.Wait()
	if s.Size(FieldSurname) == 0 {
		t.Fatal("memo empty after concurrent mix")
	}
}

// TestLookupResultIsCallerOwned mutates a Lookup result and verifies the
// index postings are untouched: Lookup decodes into a fresh slice.
func TestLookupResultIsCallerOwned(t *testing.T) {
	_, k, _ := builtIndexes(t)
	var value string
	for v, ids := range k.postings[FieldSurname] {
		if ids.len() > 0 {
			value = v
			break
		}
	}
	if value == "" {
		t.Skip("no populated posting")
	}
	cp := k.Lookup(FieldSurname, value)
	want := append([]pedigree.NodeID(nil), cp...)
	for i := range cp {
		cp[i] = -999 // hostile caller scribbles over the slice
	}
	got := k.Lookup(FieldSurname, value)
	if len(got) != len(want) {
		t.Fatalf("posting length changed after mutating a copy")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("posting %d corrupted: got %d, want %d", i, got[i], want[i])
		}
	}
	if k.Lookup(FieldSurname, "zq-absent-value") != nil {
		t.Error("Lookup of an absent value should be nil")
	}
}

// TestYearIndexShrunk verifies the year field stores no postings at all:
// queries use the MinYear/MaxYear interval check.
func TestYearIndexShrunk(t *testing.T) {
	_, k, _ := builtIndexes(t)
	if n := k.Values(FieldYear); n != 0 {
		t.Fatalf("year field still holds postings for %d values", n)
	}
}
