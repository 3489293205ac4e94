package er

import (
	"sort"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
)

// component is one independent unit of the partitioned resolve: the node
// groups of one connected component of the dependency graph, plus the
// pre-existing entities (the Extend path's restored clusters) that share
// records with them. Records never cross components, so the bootstrap and
// merge decisions of different components cannot influence each other.
type component struct {
	groups   []int32    // indices into g.Groups, ascending
	entities []EntityID // live entities of the parent store, in store order
	nodes    int        // relational node count, the load-balancing weight
}

// unionFind is a plain weighted-path-halving disjoint-set over record ids.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// partition splits the resolve into independent components. Records are
// unioned through (a) every proper node group — the group average couples
// all of a group's nodes, so they must resolve together — and (b) every
// pre-existing entity, whose value propagation and constraint checks span
// all of its records. Groups of fewer than two nodes never bootstrap or
// merge and are ignored. Components are numbered by their smallest record
// id, making the partition (and therefore the merged output) independent
// of worker scheduling.
func (r *Resolver) partition() []component {
	n := len(r.d.Records)
	uf := newUnionFind(n)
	relevant := make([]bool, n)
	for gi := range r.g.Groups {
		grp := &r.g.Groups[gi]
		if len(grp.Nodes) < 2 {
			continue
		}
		first := int32(r.g.Node(grp.Nodes[0]).A)
		for _, id := range grp.Nodes {
			node := r.g.Node(id)
			uf.union(first, int32(node.A))
			uf.union(first, int32(node.B))
		}
		relevant[uf.find(first)] = true
	}
	seeds := r.store.Entities()
	for _, e := range seeds {
		recs := r.store.Records(e)
		for _, rec := range recs[1:] {
			uf.union(int32(recs[0]), int32(rec))
		}
		relevant[uf.find(int32(recs[0]))] = true
	}
	// relevant was marked on roots that may have been merged under another
	// root since; re-anchor it before numbering.
	compIdx := make([]int32, n)
	for i := range compIdx {
		compIdx[i] = -1
	}
	for i := 0; i < n; i++ {
		if relevant[i] {
			relevant[uf.find(int32(i))] = true
		}
	}
	count := int32(0)
	for i := 0; i < n; i++ {
		root := uf.find(int32(i))
		if relevant[root] && compIdx[root] == -1 {
			compIdx[root] = count
			count++
		}
	}
	comps := make([]component, count)
	for gi := range r.g.Groups {
		grp := &r.g.Groups[gi]
		if len(grp.Nodes) < 2 {
			continue
		}
		ci := compIdx[uf.find(int32(r.g.Node(grp.Nodes[0]).A))]
		comps[ci].groups = append(comps[ci].groups, int32(gi))
		comps[ci].nodes += len(grp.Nodes)
	}
	for _, e := range seeds {
		ci := compIdx[uf.find(int32(r.store.Records(e)[0]))]
		comps[ci].entities = append(comps[ci].entities, e)
	}
	return comps
}

// Resolve runs bootstrapping, merging, and refinement, and returns the
// resulting clusters. The dependency graph is partitioned into connected
// components (see partition); each component is resolved on a store of its
// own, concurrently across GOMAXPROCS goroutines and inline at one, and
// its entities are then numbered into the resolver's store in component
// order. Groups in different components share no records, so their merge
// decisions are independent, and neither the clusters nor their numbering
// depend on GOMAXPROCS or on scheduling.
//
// Component resolvers share the parent's read-only state (graph, data set,
// validator, name frequencies) and, because components partition both the
// records and the relational nodes, also the entityOf/ver record slabs and
// the similarity/value cache slabs, without synchronisation.
func (r *Resolver) Resolve() *Result {
	comps := r.partition()
	st := obs.StartStage("resolve.components")

	// Hand each component with a node group its share of the pre-populated
	// store. Seeding rewrites the shared entityOf slab from parent entity ids
	// to component-local ids, so it must finish before workers start. A
	// component without a group is one prior entity no new record reaches:
	// nothing would bootstrap or merge into it, and REF leaves a restored
	// clique alone (density 1, no bridge), so it is passed through as it is.
	subs := make([]*EntityStore, len(comps))
	for ci := range comps {
		if len(comps[ci].groups) == 0 {
			continue
		}
		sub := newSharedStore(r.d, r.store.entityOf, r.store.ver)
		for _, e := range comps[ci].entities {
			ent := &r.store.entities[e]
			sub.seed(ent.records, ent.links)
		}
		subs[ci] = sub
	}

	// Largest components first so a straggler starts early; results land in
	// per-component slots, so scheduling never affects the output.
	var order []int
	for ci := range comps {
		if subs[ci] != nil {
			order = append(order, ci)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if comps[a].nodes != comps[b].nodes {
			return comps[a].nodes > comps[b].nodes
		}
		return a < b
	})
	results := make([]*Result, len(comps))
	par.Pull(len(order), func(_ int, next func() int) {
		for i := next(); i < len(order); i = next() {
			ci := order[i]
			cr := &Resolver{
				cfg: r.cfg, g: r.g, d: r.d, store: subs[ci],
				val: r.val, nameFreq: r.nameFreq,
				simCache: r.simCache, valCache: r.valCache,
			}
			res := &Result{Store: subs[ci]}
			cr.resolveGroups(res, comps[ci].groups)
			results[ci] = res
		}
	})

	// Renumber every component's live entities into the parent store in
	// component order.
	out := &Result{Store: r.store}
	prior := r.store.entities
	r.store.entities = make([]entity, 0, len(prior))
	for ci := range comps {
		if subs[ci] == nil {
			ent := &prior[comps[ci].entities[0]]
			r.store.adopt(ent.records, ent.links)
			continue
		}
		res := results[ci]
		out.MergedNodes += res.MergedNodes
		out.RefineRemoved += res.RefineRemoved
		out.RefineSplits += res.RefineSplits
		out.Timings.Bootstrap += res.Timings.Bootstrap
		out.Timings.Merge += res.Timings.Merge
		out.Timings.Refine += res.Timings.Refine
		sub := subs[ci]
		for i := range sub.entities {
			if ent := &sub.entities[i]; !ent.dead && len(ent.records) > 0 {
				r.store.adopt(ent.records, ent.links)
			}
		}
	}
	st.Stop()
	obs.ObserveStage("bootstrap", out.Timings.Bootstrap)
	obs.ObserveStage("merge", out.Timings.Merge)
	obs.ObserveStage("refine", out.Timings.Refine)
	return out
}
