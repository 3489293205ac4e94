package shard

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/query"
)

// Result-cache metrics in the default registry, exposed at GET /metrics.
var (
	mCacheHits = obs.Default.Counter("snaps_query_cache_hits_total",
		"Searches answered from the generation-keyed result cache.")
	mCacheMisses = obs.Default.Counter("snaps_query_cache_misses_total",
		"Searches that missed the result cache and ran the full engine.")
	mCacheEvictions = obs.Default.Counter("snaps_query_cache_evictions_total",
		"Result-cache entries dropped (LRU pressure or superseded generation).")
	mCacheEntries = obs.Default.Gauge("snaps_query_cache_entries",
		"Result-cache entries currently resident.")
	mCacheStaleServes = obs.Default.Counter("snaps_query_cache_stale_serves_total",
		"Searches served from a previous generation's entry while a refresh ran.")
	mCacheRefreshes = obs.Default.Counter("snaps_query_cache_refreshes_total",
		"Background refreshes that replaced a stale-served entry with the current generation's ranking.")
)

// ResultCache is a size-bounded LRU of merged rankings, keyed by (serving
// generation, normalised query). The coordinator owns one and hands it to
// every coordinator Advance publishes, invalidating it once per flush:
// entries written against a superseded generation can never be served as
// current. Cached slices are shared with callers and are read-only by
// contract (Coordinator.Search documents the same).
type ResultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[resultKey]*list.Element

	// staleWindow is how many generations behind the current one entries
	// are retained for stale-while-revalidate serving: 0 is the strict
	// mode — Invalidate drops everything below the new generation; 1 keeps
	// the immediately superseded generation so a flush-driven generation
	// bump never stampedes the engines.
	staleWindow uint64
	// refreshing singleflights background refreshes: at most one
	// goroutine recomputes a given (generation, key) while stale serves
	// continue.
	refreshing map[resultKey]struct{}
}

type resultKey struct {
	gen uint64
	q   string
}

type cacheEntry struct {
	key     resultKey
	results []query.Result
	// anchors holds the lowest record id of each row's entity: node ids
	// are renumbered by every flush, records are not.
	anchors []model.RecordID
}

// NewResultCache returns a cache bounded to capacity entries, or nil when
// capacity <= 0 (caching off). With stale set, Invalidate retains the
// immediately superseded generation's entries for GetStale.
func NewResultCache(capacity int, stale bool) *ResultCache {
	if capacity <= 0 {
		return nil
	}
	c := &ResultCache{cap: capacity, ll: list.New(), items: map[resultKey]*list.Element{},
		refreshing: map[resultKey]struct{}{}}
	if stale {
		c.staleWindow = 1
	}
	return c
}

// GetStale returns the ranking, and its anchors, cached for the query
// under the generation immediately preceding gen, when the cache keeps one.
func (c *ResultCache) GetStale(gen uint64, key string) ([]query.Result, []model.RecordID, bool) {
	if gen == 0 || c.staleWindow == 0 {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[resultKey{gen - 1, key}]
	if !ok {
		return nil, nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.results, e.anchors, true
}

// beginRefresh claims the right to refresh (gen, key); the claimant must
// call endRefresh when done. A second caller while a refresh is in flight
// gets false and serves stale without spawning another recompute.
func (c *ResultCache) beginRefresh(gen uint64, key string) bool {
	k := resultKey{gen, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, inflight := c.refreshing[k]; inflight {
		return false
	}
	c.refreshing[k] = struct{}{}
	return true
}

func (c *ResultCache) endRefresh(gen uint64, key string) {
	c.mu.Lock()
	delete(c.refreshing, resultKey{gen, key})
	c.mu.Unlock()
}

// Get returns the cached ranking for the query under the given generation.
func (c *ResultCache) Get(gen uint64, key string) ([]query.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[resultKey{gen, key}]
	if !ok {
		mCacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	mCacheHits.Inc()
	return el.Value.(*cacheEntry).results, true
}

// Put stores a ranking and its anchors under (generation, key), evicting
// the least recently used entry when the cache is full.
func (c *ResultCache) Put(gen uint64, key string, results []query.Result, anchors []model.RecordID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := resultKey{gen, key}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*cacheEntry)
		e.results, e.anchors = results, anchors
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, results: results, anchors: anchors})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		mCacheEvictions.Inc()
	}
	mCacheEntries.Set(int64(c.ll.Len()))
}

// Invalidate evicts every entry too old to serve once gen is current: in
// strict mode everything below gen, in stale-while-revalidate mode
// everything older than the generation kept for stale serving.
// Coordinator.Advance calls it once per flush so superseded rankings free
// their memory promptly instead of aging out.
func (c *ResultCache) Invalidate(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.gen+c.staleWindow < gen {
			c.ll.Remove(el)
			delete(c.items, e.key)
			mCacheEvictions.Inc()
		}
		el = next
	}
	mCacheEntries.Set(int64(c.ll.Len()))
}

// cacheKey canonicalises a query (plus the result-list bound that shapes
// its ranking) into a cache key. The generation is the other half of the
// composite key: the key says which ranking, the generation which id space
// its entity ids belong to.
func cacheKey(q query.Query, topM int) string {
	var b strings.Builder
	b.Grow(len(q.FirstName) + len(q.Surname) + len(q.Location) + 32)
	b.WriteString(q.FirstName)
	b.WriteByte(0)
	b.WriteString(q.Surname)
	b.WriteByte(0)
	b.WriteString(q.Location)
	b.WriteByte(0)
	var num [24]byte
	writeInt := func(v int64) {
		b.Write(strconv.AppendInt(num[:0], v, 10))
		b.WriteByte(0)
	}
	writeInt(int64(q.Gender))
	writeInt(int64(q.YearFrom))
	writeInt(int64(q.YearTo))
	writeInt(int64(q.CertType))
	if q.HasCertType {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	writeInt(int64(topM))
	return b.String()
}
