// Package baseline implements the three unsupervised ER baselines the paper
// compares SNAPS against (Sec. 10):
//
//   - Attr-Sim: traditional pairwise record linkage — decide each candidate
//     pair by a weighted attribute similarity threshold.
//   - Dep-Graph: a reference-reconciliation baseline in the style of Dong,
//     Halevy & Madhavan (2005) — propagates link decisions and applies the
//     same temporal and link constraints as SNAPS, but performs no
//     disambiguation, no adaptive group handling, and no cluster refinement.
//   - Rel-Cluster: a collective relational-clustering baseline in the style
//     of Bhattacharya & Getoor (2007) — iteratively merges clusters by a
//     combined attribute/relational similarity with ambiguity weighting, but
//     without propagation of changing attribute values, partial-match-group
//     handling, or refinement.
//
// The supervised Magellan-style baseline lives in package mlmatch.
package baseline

import (
	"cmp"
	"math"
	"slices"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/constraint"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
)

// PairSim computes the weighted attribute similarity used by Attr-Sim and
// as the attribute component of Rel-Cluster: a weighted average over the
// attributes present on both records (first name 0.5, surname 0.3, address
// and occupation 0.1 each).
func PairSim(cfg depgraph.Config, a, b *model.Record) float64 {
	type w struct {
		attr   model.Attr
		weight float64
	}
	weights := [...]w{
		{model.FirstName, 0.5},
		{model.Surname, 0.3},
		{model.Address, 0.1},
		{model.Occupation, 0.1},
	}
	num, den := 0.0, 0.0
	for _, x := range weights {
		sim, ok := depgraph.CompareAttr(cfg, a, b, x.attr)
		if !ok {
			continue
		}
		num += x.weight * sim
		den += x.weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// The baselines' fixed parameters.
const (
	// attrSimThreshold is Attr-Sim's customary match threshold on the
	// weighted pair similarity.
	attrSimThreshold = 0.85
	// depGraphThreshold is Dep-Graph's merge threshold, SNAPS's t_m, and
	// depGraphRounds bounds its fixpoint loop of decision propagation.
	depGraphThreshold = 0.85
	depGraphRounds    = 3
	// relClusterThreshold is Rel-Cluster's merge threshold, relClusterAlpha
	// weighs its relational component against the attribute one, and
	// relClusterRounds bounds its agglomeration loop (the settings used in
	// Table 4).
	relClusterThreshold = 0.70
	relClusterAlpha     = 0.25
	relClusterRounds    = 6
)

// AttrSim is the traditional pairwise-threshold baseline: it classifies
// candidate pairs and returns the matched pair set. No relationship
// information, constraints, or clustering is used — exactly the behaviour
// whose poor linkage quality Table 4 documents.
func AttrSim(d *model.Dataset, cands []blocking.Candidate) map[model.PairKey]bool {
	cfg := depgraph.DefaultConfig()
	out := map[model.PairKey]bool{}
	for _, c := range cands {
		a, b := d.Record(c.A), d.Record(c.B)
		if PairSim(cfg, a, b) >= attrSimThreshold {
			out[model.MakePairKey(c.A, c.B)] = true
		}
	}
	return out
}

// DepGraph is the Dong-et-al.-style propagation baseline. It reuses the
// SNAPS dependency graph and entity store but merges relational nodes
// one-by-one in descending similarity order whenever the (propagated)
// strict attribute similarity reaches the threshold and the constraints
// hold. There is no disambiguation similarity, no group averaging, no
// drop-lowest iteration, and no refinement. Every node not yet linked is
// eligible in every round. It returns the resulting entity store.
func DepGraph(d *model.Dataset, g *depgraph.Graph) *er.EntityStore {
	store := er.NewEntityStore(d)
	greedyMerge(d, g, store, depGraphRounds, depGraphThreshold, nil, func(n *depgraph.RelationalNode) float64 {
		return depGraphNodeSim(d, g.Config, store, n)
	})
	return store
}

// depGraphNodeSim scores a node with strict category accounting (all
// present attributes count) plus value propagation through current
// entities, which is the Dong et al. contribution: an attribute scores the
// best pair of values across the two records' entities, compared as SNAPS
// compares them (depgraph.CompareValues, which applies the geocoding rule
// to the node's own records). Each distinct value pair is compared once:
// entities share values across their records (a household's address), and
// a geocoded pair costs a geodesic each time it is compared.
func depGraphNodeSim(d *model.Dataset, cfg depgraph.Config, store *er.EntityStore, n *depgraph.RelationalNode) float64 {
	ra, rb := d.Record(n.A), d.Record(n.B)
	ea, eb := store.View(n.A), store.View(n.B)
	weights := [...]float64{model.Must: 0.5, model.Core: 0.3, model.Extra: 0.2}
	var sums, counts [3]float64
	var bufA, bufB [16]model.Sym
	for _, attr := range [...]model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation} {
		if !depgraph.AttrComparable(ra, rb, attr) {
			continue
		}
		cat := model.CategoryOf(attr)
		counts[cat]++
		best := 0.0
		vb := appendDistinct(bufB[:0], d, eb, attr)
		for _, x := range appendDistinct(bufA[:0], d, ea, attr) {
			for _, y := range vb {
				best = max(best, depgraph.CompareValues(cfg, ra, rb, attr, x, y))
			}
		}
		if best >= cfg.AtomicThreshold {
			sums[cat] += best
		}
	}
	num, den := 0.0, 0.0
	for c := model.Must; c <= model.Extra; c++ {
		if counts[c] == 0 {
			continue
		}
		num += weights[c] * (sums[c] / counts[c])
		den += weights[c]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// appendDistinct appends to dst the distinct non-empty values of attr over
// the records ids. Entities are small, so a linear scan of dst beats a map.
func appendDistinct(dst []model.Sym, d *model.Dataset, ids []model.RecordID, attr model.Attr) []model.Sym {
	for _, id := range ids {
		if v := d.Record(id).Sym(attr); v != 0 && !slices.Contains(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// greedyMerge is the merge pass Dep-Graph and Rel-Cluster share. Each of
// at most rounds rounds scores the nodes not yet linked that eligible
// admits (all of them when eligible is nil), keeps those scoring at or
// above threshold, and links them in descending score, then node id,
// wherever the constraints allow the pair and the merge of the two
// entities. It stops at a round that links nothing.
func greedyMerge(d *model.Dataset, g *depgraph.Graph, store *er.EntityStore, rounds int, threshold float64,
	eligible func(*depgraph.RelationalNode) bool, score func(*depgraph.RelationalNode) float64) {
	val := constraint.NewValidator(d)
	type scored struct {
		id  depgraph.NodeID
		sim float64
	}
	var queue []scored
	linked := make([]bool, len(g.Nodes))
	for round := 0; round < rounds; round++ {
		queue = queue[:0]
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if linked[n.ID] || eligible != nil && !eligible(n) {
				continue
			}
			if sim := score(n); sim >= threshold {
				queue = append(queue, scored{id: n.ID, sim: sim})
			}
		}
		slices.SortFunc(queue, func(a, b scored) int {
			if c := cmp.Compare(b.sim, a.sim); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		progress := false
		for _, q := range queue {
			n := g.Node(q.id)
			if val.PairOK(n.A, n.B) && val.MergeOK(store.View(n.A), store.View(n.B)) {
				store.Link(n.A, n.B)
				linked[q.id] = true
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// RelCluster is the Bhattacharya-Getoor-style collective clustering
// baseline: greedy agglomerative merging of record clusters by a convex
// combination of attribute similarity and relational (shared-neighbour)
// similarity, with an ambiguity-scaled attribute component. Cluster
// similarities are recomputed as clusters merge. No value propagation,
// no partial-match-group handling, no refinement. A node is eligible while
// its two records are in different entities. It returns the entity store.
func RelCluster(d *model.Dataset, g *depgraph.Graph) *er.EntityStore {
	store := er.NewEntityStore(d)

	// Ambiguity weights per record: inverse document frequency of the name
	// combination (Bhattacharya & Getoor's ambiguity of attribute values).
	type name struct{ first, sur model.Sym }
	freq := map[name]int{}
	for i := range d.Records {
		freq[name{d.Records[i].First, d.Records[i].Sur}]++
	}
	o := float64(len(d.Records))
	amb := func(r *model.Record) float64 {
		f := float64(freq[name{r.First, r.Sur}])
		if f <= 0 || o < 2 {
			return 0
		}
		s := math.Log2(o/f) / math.Log2(o)
		if s < 0 {
			return 0
		}
		return s
	}

	// neighbours of a record: the other records on its certificate.
	neighbour := map[model.RecordID][]model.RecordID{}
	for ci := range d.Certificates {
		cert := &d.Certificates[ci]
		for _, a := range cert.Roles {
			for _, b := range cert.Roles {
				if a != b {
					neighbour[a] = append(neighbour[a], b)
				}
			}
		}
	}

	sim := func(n *depgraph.RelationalNode) float64 {
		ra, rb := d.Record(n.A), d.Record(n.B)
		attr := PairSim(g.Config, ra, rb)
		attr *= 0.75 + 0.25*(amb(ra)+amb(rb))/2 // ambiguity scaling
		// Relational component: fraction of neighbour records already in
		// shared entities.
		shared, total := 0, 0
		for _, na := range neighbour[n.A] {
			ea := store.EntityOf(na)
			if ea == er.NoEntity {
				continue
			}
			total++
			for _, nb := range neighbour[n.B] {
				if store.EntityOf(nb) == ea {
					shared++
					break
				}
			}
		}
		rel := 0.0
		if total > 0 {
			rel = float64(shared) / float64(total)
		}
		return (1-relClusterAlpha)*attr + relClusterAlpha*rel
	}
	apart := func(n *depgraph.RelationalNode) bool {
		ea := store.EntityOf(n.A)
		return ea == er.NoEntity || ea != store.EntityOf(n.B)
	}
	greedyMerge(d, g, store, relClusterRounds, relClusterThreshold, apart, sim)
	return store
}
