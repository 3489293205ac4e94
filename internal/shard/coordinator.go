package shard

import (
	"context"
	"sort"
	"strconv"
	"time"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

// Coordinator-level metrics in the default registry, exposed at /metrics.
// Latency families use the log-scale bucket layout: post-PR-4 hot-path
// searches are sub-millisecond, and on the coarse linear DefBuckets every
// one of them collapsed into the lowest bucket.
var (
	mShardCount = obs.Default.Gauge("snaps_shard_count",
		"Number of serving shards in the current coordinator.")
	mScatterSeconds = obs.Default.Histogram("snaps_shard_scatter_seconds",
		"Wall-clock duration of one scatter-gather search across all shards.", obs.LatencyBuckets)
	mMergeSeconds = obs.Default.Histogram("snaps_shard_merge_seconds",
		"Duration of the k-way merge of per-shard rankings after the scatter.", obs.LatencyBuckets)
	mStragglerSeconds = obs.Default.Histogram("snaps_shard_straggler_seconds",
		"Per scatter: slowest shard search minus the median one — scatter time lost to the laggard.",
		obs.LatencyBuckets)
	mSimilarityBytes = obs.Default.Gauge("snaps_index_similarity_bytes",
		"Bytes of the similarity index S over the published generation's shards: block arrays plus encoded bigram postings.")

	mShardSearchSeconds = obs.Default.HistogramVec("snaps_shard_search_seconds",
		"Per-shard search duration under the scatter-gather coordinator.",
		obs.LatencyBuckets, "shard")
	mShardQueueWait = obs.Default.HistogramVec("snaps_shard_queue_wait_seconds",
		"Delay between scatter start and a worker picking up the shard's search.",
		obs.LatencyBuckets, "shard")
	mStragglerTotal = obs.Default.CounterVec("snaps_shard_straggler_total",
		"Scatters in which the shard was the slowest one.", "shard")
)

// shardMetrics are the per-shard series, pre-created at shard construction
// so the serving hot path never takes the registry (or vec) lock.
type shardMetrics struct {
	searches      *obs.Counter
	nodes         *obs.Gauge
	searchSeconds *obs.Histogram
	queueWait     *obs.Histogram
	straggles     *obs.Counter
}

func metricsFor(id int) *shardMetrics {
	sid := strconv.Itoa(id)
	l := obs.Label("shard", sid)
	return &shardMetrics{
		searches: obs.Default.Counter("snaps_shard_searches_total{"+l+"}",
			"Searches served by the shard under the scatter-gather coordinator."),
		nodes: obs.Default.Gauge("snaps_shard_nodes{"+l+"}",
			"Pedigree entities owned by the shard."),
		searchSeconds: mShardSearchSeconds.With(sid),
		queueWait:     mShardQueueWait.With(sid),
		straggles:     mStragglerTotal.With(sid),
	}
}

// Shard is one self-contained serving partition: the subset-filtered
// keyword and similarity indexes over its owned entities and a query engine
// bound to them. A Shard is immutable once published; every flush produces
// a replacement.
type Shard struct {
	ID     int
	Engine *query.Engine
	// Keyword and Similar are the engine's indexes, kept on the shard so
	// the next flush can patch them per-partition via index.UpdateSubset.
	Keyword *index.Keyword
	Similar *index.Similarity
	// NodeCount is the number of owned pedigree entities.
	NodeCount int

	met *shardMetrics
}

// Options tunes Partition.
type Options struct {
	// Shards is the partition count; values below 1 mean 1.
	Shards int
	// SimThreshold is the similarity-index threshold s_t (paper: 0.5).
	SimThreshold float64
	// CacheEntries is the capacity of the coordinator's result cache, in
	// merged rankings; 0 disables caching.
	CacheEntries int
	// StaleServe enables stale-while-revalidate on that cache.
	StaleServe bool
}

// Coordinator fronts the shards: it answers a search from its result cache
// or fans it out across the shards on a bounded worker pool and merges the
// per-shard top-m rankings. Like the Serving bundle that carries it, a
// Coordinator is immutable once published — Advance produces a fresh one —
// so a reader that loaded it sees one consistent generation of every
// shard, never a torn mix.
type Coordinator struct {
	graph  *pedigree.Graph
	shards []*Shard
	// owners maps every NodeID of graph to its owning shard; counts is the
	// per-shard node tally.
	owners []int32
	counts []int
	// generation is the global serving generation the coordinator was
	// published under (the pipeline's snapshot counter).
	generation   uint64
	simThreshold float64
	// cache holds merged rankings keyed by generation; Advance hands it to
	// the next coordinator. Nil when caching is off.
	cache *ResultCache
}

// Partition builds a coordinator over the graph from scratch: every
// shard's indexes are a fresh subset build. With Shards <= 1 the single
// shard's indexes are exactly index.Build's output.
func Partition(g *pedigree.Graph, o Options) *Coordinator {
	defer obs.StartStage("shard_partition").Stop()
	n := o.Shards
	if n < 1 {
		n = 1
	}
	c := &Coordinator{
		graph:        g,
		simThreshold: o.SimThreshold,
		cache:        NewResultCache(o.CacheEntries, o.StaleServe),
	}
	c.owners, c.counts = computeOwners(g, n)
	c.shards = make([]*Shard, n)
	for s := 0; s < n; s++ {
		k, sim := index.BuildSubset(g, c.keep(s), c.simThreshold)
		c.shards[s] = c.newShard(s, k, sim, metricsFor(s))
	}
	c.setGauges()
	return c
}

// setGauges publishes the sizes of the coordinator about to be served.
func (c *Coordinator) setGauges() {
	mShardCount.Set(int64(len(c.shards)))
	var simBytes int64
	for _, sh := range c.shards {
		simBytes += sh.Similar.Bytes()
	}
	mSimilarityBytes.Set(simBytes)
}

// newShard puts an engine over shard s's indexes of the coordinator's
// graph, wired to the shard's metrics.
func (c *Coordinator) newShard(s int, k *index.Keyword, sim *index.Similarity, met *shardMetrics) *Shard {
	sh := &Shard{
		ID: s, Keyword: k, Similar: sim,
		Engine:    query.NewEngine(c.graph, k, sim),
		NodeCount: c.counts[s],
		met:       met,
	}
	met.nodes.Set(int64(sh.NodeCount))
	return sh
}

// keep returns the ownership filter of shard s over the coordinator's
// graph. A single shard owns every node, so its filter is nil and its
// indexes are exactly index.Build's (and its flushes patch the whole index
// pair, not a subset of it).
func (c *Coordinator) keep(s int) func(pedigree.NodeID) bool {
	if len(c.counts) == 1 {
		return nil
	}
	sid := int32(s)
	return func(id pedigree.NodeID) bool { return c.owners[id] == sid }
}

// AdvanceStats reports how a flush was absorbed by the partitions.
type AdvanceStats struct {
	// Touched is the shard count, since every flush advances every shard,
	// and Reused is always 0.
	Touched, Reused int
	// Rebuilt counts the name-field S blocks the flush scored from scratch
	// rather than patched or shared (index.UpdateSubset decides, per block).
	Rebuilt int
}

// Advance publishes a flush: every shard gets the indexes of its partition
// of the new graph from index.UpdateSubset over its previous ones, and an
// engine over them. A flush renumbers most entities, so no shard's previous
// engine could be kept. generation is the global snapshot counter of the
// bundle the new coordinator will be published in; the result cache carries
// over and is invalidated against it once.
func (c *Coordinator) Advance(newG *pedigree.Graph, generation uint64) (*Coordinator, AdvanceStats) {
	defer obs.StartStage("shard_advance").Stop()
	n := len(c.shards)
	nc := &Coordinator{
		graph:        newG,
		generation:   generation,
		simThreshold: c.simThreshold,
		cache:        c.cache,
	}
	nc.owners, nc.counts = computeOwners(newG, n)
	st := AdvanceStats{Touched: n}
	nc.shards = make([]*Shard, n)
	for s, prev := range c.shards {
		k, sim, rebuilt := index.UpdateSubset(newG, nc.keep(s), prev.Keyword, prev.Similar)
		st.Rebuilt += rebuilt
		sh := nc.newShard(s, k, sim, prev.met)
		sh.Engine.Weights = prev.Engine.Weights
		sh.Engine.TopM = prev.Engine.TopM
		nc.shards[s] = sh
	}
	if nc.cache != nil {
		nc.cache.Invalidate(generation)
	}
	nc.setGauges()
	return nc, st
}

// NumShards returns the partition count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Shards returns the shard slice; callers must treat it as read-only.
func (c *Coordinator) Shards() []*Shard { return c.shards }

// Graph returns the global pedigree graph the coordinator serves.
func (c *Coordinator) Graph() *pedigree.Graph { return c.graph }

// Generation returns the global serving generation the coordinator was
// published under.
func (c *Coordinator) Generation() uint64 { return c.generation }

// TopM returns the bounded-ranking depth shared by every shard engine.
func (c *Coordinator) TopM() int { return c.shards[0].Engine.TopM }

// SetTopM sets the bounded-ranking depth on every shard engine. It is not
// safe to call once the coordinator is serving; tests and start-up
// configuration only.
func (c *Coordinator) SetTopM(m int) {
	for _, sh := range c.shards {
		sh.Engine.TopM = m
	}
}

// OwnerOf returns the shard owning a node of the coordinator's graph.
func (c *Coordinator) OwnerOf(id pedigree.NodeID) int { return int(c.owners[id]) }

// Search answers the query without a caller trace.
func (c *Coordinator) Search(q query.Query) []query.Result {
	return c.SearchContext(context.Background(), q)
}

// SearchContext answers the query from the result cache when it holds the
// query under this coordinator's generation, and otherwise scatters it and
// caches the merged ranking. With stale-while-revalidate on, a miss that
// finds the previous generation's entry serves it re-anchored to this
// graph and leaves one background refresh to recompute it. The returned
// slice and its Matched maps may be shared with the cache; callers must
// not mutate them.
func (c *Coordinator) SearchContext(ctx context.Context, q query.Query) []query.Result {
	if c.cache == nil {
		return c.scatter(ctx, q)
	}
	key := cacheKey(q, c.shards[0].Engine.Weights, c.TopM())
	if res, ok := c.cache.Get(c.generation, key); ok {
		cachedSpan(ctx, "cache_hit", res)
		return res
	}
	if prev, anchors, ok := c.cache.GetStale(c.generation, key); ok {
		if c.cache.beginRefresh(c.generation, key) {
			go func() {
				defer c.cache.endRefresh(c.generation, key)
				c.scatterAndPut(context.Background(), q, key)
				mCacheRefreshes.Inc()
			}()
		}
		mCacheStaleServes.Inc()
		res := c.reanchor(prev, anchors)
		cachedSpan(ctx, "cache_stale", res)
		return res
	}
	return c.scatterAndPut(ctx, q, key)
}

// cachedSpan records a search the cache answered as a "search" span
// carrying attr, where an engine's would carry its stages.
func cachedSpan(ctx context.Context, attr string, res []query.Result) {
	_, sp := obs.StartSpan(ctx, "search")
	sp.SetAttr(attr, 1)
	sp.SetAttr("results", int64(len(res)))
	sp.End()
}

// scatterAndPut computes the ranking and caches it with its anchors under
// the coordinator's generation.
func (c *Coordinator) scatterAndPut(ctx context.Context, q query.Query, key string) []query.Result {
	res := c.scatter(ctx, q)
	anchors := make([]model.RecordID, len(res))
	for i, r := range res {
		anchors[i] = minRecord(c.graph.Node(r.Entity))
	}
	c.cache.Put(c.generation, key, res, anchors)
	return res
}

// reanchor renders a previous generation's ranking in this coordinator's
// graph. Every flush renumbers entities, so a cached id names someone
// else here; each row moves to the entity that now holds its anchor
// record, keeping its score and match flags, and a row that lands on an
// entity already listed is dropped.
func (c *Coordinator) reanchor(prev []query.Result, anchors []model.RecordID) []query.Result {
	out := make([]query.Result, 0, len(prev))
rows:
	for i, r := range prev {
		// Records are append-only and each is in exactly one node, so the
		// anchor always resolves.
		r.Entity, _ = c.graph.NodeOfRecord(anchors[i])
		for _, o := range out {
			if o.Entity == r.Entity {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// scatter fans the query out across the shards on a bounded worker pool,
// then merges the per-shard rankings into the global top-m; one shard is
// a direct engine call. Every entity's score is computed entirely within
// its owning shard with the same floating-point operations as the
// single-shard engine (the shard's similarity lists are order-preserving
// subsets of the global ones), the shards' node sets are disjoint, and any
// entity in the global top-m is necessarily within its own shard's top-m —
// so the merged ranking is byte-identical to the single-shard engine's.
func (c *Coordinator) scatter(ctx context.Context, q query.Query) []query.Result {
	if len(c.shards) == 1 {
		sh := c.shards[0]
		sh.met.searches.Inc()
		return sh.Engine.SearchContext(ctx, q)
	}
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "scatter")
	parts := make([][]query.Result, len(c.shards))
	durs := make([]time.Duration, len(c.shards))
	par.Pull(len(c.shards), func(_ int, next func() int) {
		for i := next(); i < len(c.shards); i = next() {
			parts[i], durs[i] = c.searchShard(ctx, c.shards[i], q, start)
		}
	})
	mergeStart := time.Now()
	out := mergeRanked(parts, c.TopM())
	merge := time.Since(mergeStart)
	mMergeSeconds.ObserveDuration(merge)

	// Straggler accounting: the scatter finishes with its slowest shard, so
	// the time the laggard spent beyond the (lower-)median shard is scatter
	// latency that better balance would recover. The laggard's identity lands
	// on the scatter span, which the slow-query WARN logs in full — the
	// forensics name the shard, not just the total.
	slow := 0
	for i := range durs {
		if durs[i] > durs[slow] {
			slow = i
		}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lag := durs[slow] - sorted[(len(sorted)-1)/2]
	mStragglerSeconds.ObserveDuration(lag)
	c.shards[slow].met.straggles.Inc()

	sp.SetAttr("shards", int64(len(c.shards)))
	sp.SetAttr("results", int64(len(out)))
	sp.SetAttr("merge_us", merge.Microseconds())
	sp.SetAttr("straggler_shard", int64(slow))
	sp.SetAttr("straggler_us", lag.Microseconds())
	sp.End()
	mScatterSeconds.ObserveDurationExemplar(time.Since(start), obs.TraceIDFromContext(ctx))
	return out
}

// searchShard runs the query on one shard under its own child span, timing
// both the queue wait (scatter start to worker pickup) and the search
// itself into the shard's pre-created series.
func (c *Coordinator) searchShard(ctx context.Context, sh *Shard, q query.Query, scatterStart time.Time) ([]query.Result, time.Duration) {
	wait := time.Since(scatterStart)
	sh.met.queueWait.ObserveDuration(wait)
	ctx, sp := obs.StartSpan(ctx, "shard_search")
	sp.SetAttr("shard", int64(sh.ID))
	sp.SetAttr("queue_wait_us", wait.Microseconds())
	t0 := time.Now()
	res := sh.Engine.SearchContext(ctx, q)
	dur := time.Since(t0)
	sh.met.searchSeconds.ObserveDuration(dur)
	sh.met.searches.Inc()
	sp.End()
	return res, dur
}

// resultBefore is the global ranking order: score descending, NodeID
// ascending — exactly the query engine's tie-break comparator.
func resultBefore(a, b query.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Entity < b.Entity
}

// mergeRanked k-way merges the per-shard rankings (each already sorted by
// resultBefore) into the global top-m; m <= 0 merges everything. The input
// slices are never mutated.
func mergeRanked(parts [][]query.Result, m int) []query.Result {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	n := total
	if m > 0 && m < n {
		n = m
	}
	out := make([]query.Result, 0, n)
	idx := make([]int, len(parts))
	for len(out) < n {
		best := -1
		for pi, p := range parts {
			if idx[pi] >= len(p) {
				continue
			}
			if best < 0 || resultBefore(p[idx[pi]], parts[best][idx[best]]) {
				best = pi
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// Explain routes the explanation to the entity's owning shard; the shard's
// similarity lists are order-preserving subsets of the global ones
// restricted to values the shard indexes — which includes every value the
// entity itself carries — so the explanation is byte-identical to the
// single-shard engine's.
func (c *Coordinator) Explain(q query.Query, id pedigree.NodeID) query.Explanation {
	return c.shards[c.owners[id]].Engine.Explain(q, id)
}
