package shard

import (
	"testing"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

func fakeResults(n int) []query.Result {
	out := make([]query.Result, n)
	for i := range out {
		out[i] = query.Result{Entity: pedigree.NodeID(i), Score: float64(100 - i),
			Matched: [index.NumFields]query.Match{index.FieldFirstName: query.MatchExact}}
	}
	return out
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2, false)
	c.Put(1, "a", fakeResults(1), nil)
	c.Put(1, "b", fakeResults(2), nil)
	if _, ok := c.Get(1, "a"); !ok {
		t.Fatal("a evicted below capacity")
	}
	// "a" is now most recently used; inserting "c" must evict "b".
	c.Put(1, "c", fakeResults(3), nil)
	if _, ok := c.Get(1, "b"); ok {
		t.Fatal("LRU entry b not evicted")
	}
	if _, ok := c.Get(1, "a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if n := c.ll.Len(); n != 2 {
		t.Fatalf("%d entries resident, want 2", n)
	}
}

func TestResultCacheGenerationKeying(t *testing.T) {
	c := NewResultCache(8, false)
	c.Put(1, "q", fakeResults(5), nil)
	if _, ok := c.Get(2, "q"); ok {
		t.Fatal("entry of generation 1 served under generation 2")
	}
	if res, ok := c.Get(1, "q"); !ok || len(res) != 5 {
		t.Fatal("entry lost under its own generation")
	}
	c.Put(2, "q", fakeResults(3), nil)
	if res, ok := c.Get(2, "q"); !ok || len(res) != 3 {
		t.Fatal("generation 2 entry not independently stored")
	}
	if _, _, ok := c.GetStale(2, "q"); ok {
		t.Fatal("a strict cache served a stale entry")
	}
	c.Invalidate(2)
	if _, ok := c.Get(1, "q"); ok {
		t.Fatal("Invalidate left a superseded-generation entry behind")
	}
	if _, ok := c.Get(2, "q"); !ok {
		t.Fatal("Invalidate dropped a current-generation entry")
	}
}

func TestNewResultCacheDisabled(t *testing.T) {
	if NewResultCache(0, true) != nil || NewResultCache(-3, false) != nil {
		t.Fatal("capacity <= 0 must return a nil (disabled) cache")
	}
}

func TestCacheKeyDistinguishesQueries(t *testing.T) {
	base := query.Query{FirstName: "mary", Surname: "macdonald"}
	variants := []query.Query{
		{FirstName: "mary", Surname: "macdonal\x00d"}, // separator injection
		{FirstName: "marymacdonald"},
		{FirstName: "mary", Surname: "macdonald", YearFrom: 1850},
		{FirstName: "mary", Surname: "macdonald", YearTo: 1850},
		{FirstName: "mary", Surname: "macdonald", HasCertType: true},
	}
	bk := cacheKey(base, 20)
	for i, v := range variants {
		if cacheKey(v, 20) == bk {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
	if cacheKey(base, 20) != bk {
		t.Fatal("cache key not deterministic")
	}
	if cacheKey(base, 3) == bk {
		t.Fatal("TopM not part of the key")
	}
}
