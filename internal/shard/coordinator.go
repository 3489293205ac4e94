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
	mFlushTouched = obs.Default.Counter("snaps_shard_flush_touched_total",
		"Shards rebuilt (incrementally or fully) by ingest flushes.")
	mFlushReused = obs.Default.Counter("snaps_shard_flush_reused_total",
		"Shards carried over untouched by ingest flushes.")
	mIncremental = obs.Default.Counter("snaps_index_incremental_total",
		"Index updates satisfied by patching the previous generation's indexes.")
	mFullRebuild = obs.Default.Counter("snaps_index_full_rebuild_total",
		"Index updates that fell back to a full rebuild.")
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

// maxDirtyFraction bounds the incremental path: when more than this
// fraction of the pedigree nodes changed cluster membership since the
// previous generation, patching the indexes approaches the cost of
// rebuilding them and Advance rebuilds every touched shard instead.
const maxDirtyFraction = 0.25

// shardMetrics are the per-shard series, pre-created at shard construction
// so the serving hot path never takes the registry (or vec) lock.
type shardMetrics struct {
	searches      *obs.Counter
	rebuilds      *obs.Counter
	nodes         *obs.Gauge
	gen           *obs.Gauge
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
		rebuilds: obs.Default.Counter("snaps_shard_rebuilds_total{"+l+"}",
			"Times an ingest flush rebuilt the shard's indexes."),
		nodes: obs.Default.Gauge("snaps_shard_nodes{"+l+"}",
			"Pedigree entities owned by the shard."),
		gen: obs.Default.Gauge("snaps_shard_generation{"+l+"}",
			"Shard-local generation: advances only when a flush touches the shard."),
		searchSeconds: mShardSearchSeconds.With(sid),
		queueWait:     mShardQueueWait.With(sid),
		straggles:     mStragglerTotal.With(sid),
	}
}

// Shard is one self-contained serving partition: the subset-filtered
// keyword and similarity indexes over its owned entities and a query engine
// bound to them. A Shard is immutable once published; flushes that touch
// it produce a replacement, flushes that don't reuse it by reference (its
// engine keeps serving against the graph it was built from, which is
// provably identical on every owned entity).
type Shard struct {
	ID     int
	Engine *query.Engine
	// Keyword and Similar are the engine's indexes, kept on the shard so
	// the next flush can patch them per-partition via index.UpdateSubset.
	Keyword *index.Keyword
	Similar *index.Similarity
	// Generation is the shard-local rebuild counter: it advances only when
	// a flush touches this shard's partition.
	Generation uint64
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
		c.shards[s] = c.newShard(s, k, sim, 0, metricsFor(s))
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
// graph at shard-local generation gen, wired to the shard's metrics.
func (c *Coordinator) newShard(s int, k *index.Keyword, sim *index.Similarity, gen uint64, met *shardMetrics) *Shard {
	sh := &Shard{
		ID: s, Keyword: k, Similar: sim,
		Engine:     query.NewEngine(c.graph, k, sim),
		Generation: gen,
		NodeCount:  c.counts[s],
		met:        met,
	}
	met.nodes.Set(int64(sh.NodeCount))
	met.gen.Set(int64(gen))
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
	// Touched and Reused count shards rebuilt vs carried over by
	// reference.
	Touched, Reused int
	// Patched counts the touched shards whose previous indexes were patched
	// (index.UpdateSubset): all of them, or none when the flush was over
	// maxDirtyFraction and every touched shard was rebuilt, which Reason
	// then says ("" otherwise).
	Patched int
	Reason  string
	// DirtyNodes is the global count of entities whose record set changed.
	DirtyNodes int
}

// Advance publishes a flush: it classifies the new graph against the
// served one — once, for every shard — decides from the dirty fraction
// whether touched shards patch their S (index.UpdateSubset) or rebuild,
// updates ONLY the shards whose partitions the flush touched, and reuses
// every untouched shard by reference.
//
// Reuse is sound because ownership is a pure function of a node's record
// set (Owner): a shard is untouched exactly when every entity it owned is
// clean with an unchanged NodeID and no entity moved in — so its indexes,
// its engine, and even the old graph its engine reads are byte-identical
// on every owned entity. generation is the global snapshot counter of the
// bundle the new coordinator will be published in; the result cache
// carries over and is invalidated against it once.
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

	cl := classify(newG, c.graph)
	touched := make([]bool, n)
	for i := range newG.Nodes {
		if cl.isDirty[i] {
			touched[nc.owners[i]] = true
		}
	}
	// A previous node whose clean counterpart has a different NodeID — or
	// none at all — invalidates the posting lists of the shard that owned
	// it (its clean counterpart, if any, is owned by the same shard, since
	// clean means an identical record set).
	for j, nid := range cl.oldToNew {
		if nid != pedigree.NodeID(j) {
			touched[c.owners[j]] = true
		}
	}

	st := AdvanceStats{DirtyNodes: cl.dirty}
	patch := float64(cl.dirty) <= maxDirtyFraction*float64(len(newG.Nodes))
	if !patch {
		st.Reason = "dirty fraction above threshold"
	}
	nc.shards = make([]*Shard, n)
	for s := 0; s < n; s++ {
		prev := c.shards[s]
		if !touched[s] {
			nc.shards[s] = prev
			st.Reused++
			mFlushReused.Inc()
			continue
		}
		// A touched shard builds its K and patches the previous generation's
		// S, or rebuilds both when the flush was too dirty; its shard-local
		// generation advances by one.
		var (
			k   *index.Keyword
			sim *index.Similarity
		)
		if patch {
			k, sim = index.UpdateSubset(newG, nc.keep(s), prev.Keyword, prev.Similar)
			st.Patched++
			mIncremental.Inc()
		} else {
			k, sim = index.BuildSubset(newG, nc.keep(s), nc.simThreshold)
			mFullRebuild.Inc()
		}
		sh := nc.newShard(s, k, sim, prev.Generation+1, prev.met)
		sh.Engine.Weights = prev.Engine.Weights
		sh.Engine.TopM = prev.Engine.TopM
		sh.met.rebuilds.Inc()
		nc.shards[s] = sh
		st.Touched++
		mFlushTouched.Inc()
	}
	if nc.cache != nil {
		nc.cache.Invalidate(generation)
	}
	nc.setGauges()
	return nc, st
}

// classification is the clean/dirty split of a graph's nodes against the
// previous graph: oldToNew maps each previous node to its clean counterpart
// (-1 when its cluster changed or it disappeared), isDirty marks the nodes
// that have no identical previous record set, dirty counts them.
type classification struct {
	oldToNew []pedigree.NodeID
	isDirty  []bool
	dirty    int
}

// classify matches each node of g against the previous graph. A node is
// clean when its record set is exactly the record set of one previous node:
// aggregation is a pure function of the record set (records are append-only
// across generations), so a clean node carries byte-identical indexed
// values and only its NodeID may have changed. Advance calls it once per
// flush, to decide which partitions the flush touched and whether patching
// pays; nothing else in the program knows what "clean" means.
func classify(g, prevG *pedigree.Graph) *classification {
	defer obs.StartStage("index_classify").Stop()
	cl := &classification{
		oldToNew: make([]pedigree.NodeID, len(prevG.Nodes)),
		isDirty:  make([]bool, len(g.Nodes)),
	}
	for i := range cl.oldToNew {
		cl.oldToNew[i] = -1
	}
	prevRecs := model.RecordID(len(prevG.Dataset.Records))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		old := pedigree.NodeID(-1)
		clean := len(n.Records) > 0
		for j, r := range n.Records {
			if r >= prevRecs {
				clean = false
				break
			}
			o, ok := prevG.NodeOfRecord(r)
			if !ok {
				clean = false
				break
			}
			if j == 0 {
				old = o
			} else if o != old {
				clean = false
				break
			}
		}
		// Same count plus containment means the sets are equal (records
		// appear in exactly one node per graph).
		if clean && len(prevG.Node(old).Records) != len(n.Records) {
			clean = false
		}
		if clean {
			cl.oldToNew[old] = n.ID
		} else {
			cl.isDirty[i] = true
			cl.dirty++
		}
	}
	return cl
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
	// latency that better balance would recover. The laggard's identity and
	// generation land on the scatter span, which the slow-query WARN logs in
	// full — the forensics name the shard, not just the total.
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
	sp.SetAttr("straggler_generation", int64(c.shards[slow].Generation))
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
	sp.SetAttr("shard_generation", int64(sh.Generation))
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
