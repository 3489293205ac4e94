package index

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

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
		for v := range s1.blocks[f].rows {
			if want, got := s1.listOf(f, v), s2.listOf(f, v); !reflect.DeepEqual(want, got) {
				t.Fatalf("field %v value %q: precomputed lists differ:\n%v\nvs\n%v", f, v, want, got)
			}
		}
	}
}

// TestSimilarShardedConcurrentMix drives hits, misses, and same-value
// stampedes (colliding stores into one probe-cache slot) under the race
// detector.
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
				total.Add(int64(out.Len()))
			}
		}(g)
	}
	wg.Wait()
	if s.Size(FieldSurname) == 0 {
		t.Fatal("memo empty after concurrent mix")
	}
}

// TestProbeMemoryBounded: query strings come from outside, so the lists S
// holds must not grow with the number of distinct values probed — only the
// fixed share of the probe cache fills. A value the corpus knows (here a
// first name asked as a surname) has a slot of its own, which no number of
// outside strings evicts.
func TestProbeMemoryBounded(t *testing.T) {
	_, k, s := builtIndexes(t)
	indexed := k.Values(FieldSurname)
	if got := s.Size(FieldSurname); got != indexed {
		t.Fatalf("a fresh S holds %d surname lists for %d indexed surnames", got, indexed)
	}
	var known string
	for v := range k.postings[FieldFirstName] {
		if k.postings[FieldSurname][v].n == 0 {
			known = v
			break
		}
	}
	s.Similar(FieldSurname, known)
	for i := 0; i < 2000; i++ {
		s.Similar(FieldSurname, fmt.Sprintf("macprobe%d", i))
	}
	if got := len(s.blocks[FieldSurname].rows); got != indexed {
		t.Errorf("probes changed the precomputed lists: %d, want %d", got, indexed)
	}
	if got := s.Size(FieldSurname); got <= indexed+1 || got > indexed+1+probeSlots {
		t.Errorf("after 2000 distinct probes S holds %d lists, want within (%d, %d]", got, indexed+1, indexed+1+probeSlots)
	}
	if s.Similar(FieldSurname, known).Computed {
		t.Errorf("outside strings evicted the list of %q, a value the corpus knows", known)
	}
}

// TestSimilarityImmutableAfterPublish: nothing writes a published S but
// its probe cache. While goroutines probe the served generation and a
// flush rewrites the next one from it, every array of every block keeps its
// backing address, length and contents, and every probe answer is the list
// a fresh computeSimilar returns. A flush that leaves a field's vocabulary
// alone hands the next generation the very same block.
func TestSimilarityImmutableAfterPublish(t *testing.T) {
	_, newG, prevK, prevS := buildGenerations(t, 0.05)
	type pin struct {
		block              *simBlock
		copy               simBlock
		offsets, ids, sims unsafe.Pointer
	}
	addrs := func(b *simBlock) (offsets, ids, sims unsafe.Pointer) {
		return unsafe.Pointer(unsafe.SliceData(b.offsets)), unsafe.Pointer(unsafe.SliceData(b.ids)), unsafe.Pointer(unsafe.SliceData(b.sims))
	}
	pins := map[Field]pin{}
	for _, f := range nameFields {
		b := prevS.blocks[f]
		if len(b.ids) == 0 || len(b.ids) != len(b.sims) || len(b.offsets) != len(b.vals)+1 {
			t.Fatalf("field %v: block of %d ids, %d sims, %d offsets for %d values", f, len(b.ids), len(b.sims), len(b.offsets), len(b.vals))
		}
		p := pin{block: b, copy: simBlock{
			rows: maps.Clone(b.rows), vals: slices.Clone(b.vals),
			offsets: slices.Clone(b.offsets), ids: slices.Clone(b.ids), sims: slices.Clone(b.sims),
		}}
		p.offsets, p.ids, p.sims = addrs(b)
		pins[f] = p
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := nameFields[i%2]
				v := fmt.Sprintf("quixwor%d", (i+g)%200) // far more values than slots
				if got, want := prevS.similar(f, v), prevS.probe(f, v); !sameSimilar(got, want) {
					t.Errorf("probe %v %q: Similar = %v, computeSimilar = %v", f, v, got, want)
					return
				}
			}
		}(g)
	}
	_, updS, _ := UpdateSubset(newG, nil, prevK, prevS)
	// A second flush off the same generation adds one surname and nothing
	// else: the first-name block must come through by address.
	surK := &Keyword{postings: prevK.postings}
	surK.postings[FieldSurname] = maps.Clone(prevK.postings[FieldSurname])
	surK.postings[FieldSurname]["quixworth"] = encodePostings([]pedigree.NodeID{0})
	surS, _ := updateSimilarity(surK, prevK, prevS, rebuildAbove)
	close(stop)
	wg.Wait()

	for _, f := range nameFields {
		b, p := prevS.blocks[f], pins[f]
		if b != p.block || updS.blocks[f] == b {
			t.Fatalf("field %v: the flush replaced the served block or shared a changed one", f)
		}
		if offsets, ids, sims := addrs(b); offsets != p.offsets || ids != p.ids || sims != p.sims {
			t.Fatalf("field %v: an array of the previous generation's block moved", f)
		}
		if !reflect.DeepEqual(*b, p.copy) {
			t.Fatalf("field %v: the previous generation's block changed", f)
		}
	}
	if surS.blocks[FieldFirstName] != prevS.blocks[FieldFirstName] {
		t.Error("a flush that changed no first name did not share the first-name block")
	}
	if surS.blocks[FieldSurname] == prevS.blocks[FieldSurname] || surS.listOf(FieldSurname, "quixworth") == nil {
		t.Error("a flush that added a surname did not write a surname block holding it")
	}
}

// TestLookupResultIsCallerOwned mutates a Lookup result and verifies the
// index postings are untouched: Lookup decodes into a fresh slice.
func TestLookupResultIsCallerOwned(t *testing.T) {
	_, k, _ := builtIndexes(t)
	var value string
	for v, ids := range k.postings[FieldSurname] {
		if ids.n > 0 {
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
