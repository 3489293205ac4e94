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
	"math"
	"sort"

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

// AttrSim is the traditional pairwise-threshold baseline.
type AttrSim struct {
	// Threshold is the match threshold on the weighted pair similarity.
	Threshold float64
	// Graph configuration for the attribute comparison functions.
	Config depgraph.Config
}

// NewAttrSim returns the baseline with the customary 0.85 threshold.
func NewAttrSim() *AttrSim {
	return &AttrSim{Threshold: 0.85, Config: depgraph.DefaultConfig()}
}

// Match classifies candidate pairs and returns the matched pair set. No
// relationship information, constraints, or clustering is used — exactly
// the behaviour whose poor linkage quality Table 4 documents.
func (m *AttrSim) Match(d *model.Dataset, cands []blocking.Candidate) map[model.PairKey]bool {
	out := map[model.PairKey]bool{}
	for _, c := range cands {
		a, b := d.Record(c.A), d.Record(c.B)
		if PairSim(m.Config, a, b) >= m.Threshold {
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
// drop-lowest iteration, and no refinement.
type DepGraph struct {
	Threshold float64
	Config    depgraph.Config
	// Iterations bounds the fixpoint loop of decision propagation.
	Iterations int
}

// NewDepGraph returns the baseline at the SNAPS merge threshold.
func NewDepGraph() *DepGraph {
	return &DepGraph{Threshold: 0.85, Config: depgraph.DefaultConfig(), Iterations: 3}
}

// Resolve runs the baseline and returns the resulting entity store.
func (m *DepGraph) Resolve(d *model.Dataset, g *depgraph.Graph) *er.EntityStore {
	store := er.NewEntityStore(d)
	val := constraint.NewValidator(d)

	type scored struct {
		id  depgraph.NodeID
		sim float64
	}
	merged := make([]bool, len(g.Nodes))
	for iter := 0; iter < m.Iterations; iter++ {
		var queue []scored
		for i := range g.Nodes {
			if merged[i] {
				continue
			}
			n := &g.Nodes[i]
			sim := m.nodeSim(d, g, store, n)
			if sim >= m.Threshold {
				queue = append(queue, scored{id: n.ID, sim: sim})
			}
		}
		if len(queue) == 0 {
			break
		}
		sort.Slice(queue, func(i, j int) bool {
			if queue[i].sim != queue[j].sim {
				return queue[i].sim > queue[j].sim
			}
			return queue[i].id < queue[j].id
		})
		progress := false
		for _, s := range queue {
			n := g.Node(s.id)
			if !val.PairOK(n.A, n.B) {
				continue
			}
			if !val.MergeOK(store.View(n.A), store.View(n.B)) {
				continue
			}
			store.Link(n.A, n.B)
			merged[s.id] = true
			progress = true
		}
		if !progress {
			break
		}
	}
	return store
}

// nodeSim scores a node with strict category accounting (all present
// attributes count) plus value propagation through current entities, which
// is the Dong et al. contribution.
func (m *DepGraph) nodeSim(d *model.Dataset, g *depgraph.Graph, store *er.EntityStore, n *depgraph.RelationalNode) float64 {
	ra, rb := d.Record(n.A), d.Record(n.B)
	weights := map[model.AttrCategory]float64{model.Must: 0.5, model.Core: 0.3, model.Extra: 0.2}
	var sums, counts [3]float64
	for _, attr := range []model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation} {
		if _, present := depgraph.CompareAttr(m.Config, ra, rb, attr); !present {
			continue
		}
		cat := model.CategoryOf(attr)
		counts[cat]++
		best := 0.0
		for va := range valuesOr(store, n.A, attr, d) {
			for vb := range valuesOr(store, n.B, attr, d) {
				ta, tb := *ra, *rb
				setValue(&ta, attr, va)
				setValue(&tb, attr, vb)
				if attr == model.Address {
					ta.Lat, tb.Lat = 0, 0 // propagated values lose geocoding
				}
				if s, ok := depgraph.CompareAttr(m.Config, &ta, &tb, attr); ok && s > best {
					best = s
				}
			}
		}
		if best >= m.Config.AtomicThreshold {
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

func valuesOr(store *er.EntityStore, id model.RecordID, attr model.Attr, d *model.Dataset) map[string]int {
	vals := store.Values(id, attr)
	if len(vals) == 0 {
		if v := d.Record(id).Value(attr); v != "" {
			return map[string]int{v: 1}
		}
	}
	return vals
}

func setValue(r *model.Record, attr model.Attr, v string) {
	switch attr {
	case model.FirstName:
		r.First = model.Intern(v)
	case model.Surname:
		r.Sur = model.Intern(v)
	case model.Address:
		r.Addr = model.Intern(v)
	case model.Occupation:
		r.Occ = model.Intern(v)
	}
}

// RelCluster is the Bhattacharya-Getoor-style collective clustering
// baseline: greedy agglomerative merging of record clusters by a convex
// combination of attribute similarity and relational (shared-neighbour)
// similarity, with an ambiguity-scaled attribute component. Cluster
// similarities are recomputed as clusters merge. No value propagation,
// no partial-match-group handling, no refinement.
type RelCluster struct {
	Threshold float64
	// Alpha weighs the relational component against the attribute one.
	Alpha  float64
	Config depgraph.Config
	// MaxRounds bounds the agglomeration loop.
	MaxRounds int
}

// NewRelCluster returns the baseline with the settings used in Table 4.
func NewRelCluster() *RelCluster {
	return &RelCluster{Threshold: 0.70, Alpha: 0.25, Config: depgraph.DefaultConfig(), MaxRounds: 6}
}

// Resolve runs the clustering and returns the entity store.
func (m *RelCluster) Resolve(d *model.Dataset, g *depgraph.Graph) *er.EntityStore {
	store := er.NewEntityStore(d)
	val := constraint.NewValidator(d)

	// Ambiguity weights per record: inverse document frequency of the name
	// combination (Bhattacharya & Getoor's ambiguity of attribute values).
	freq := map[string]int{}
	for i := range d.Records {
		freq[d.Records[i].FirstName()+"|"+d.Records[i].Surname()]++
	}
	o := float64(len(d.Records))
	amb := func(r *model.Record) float64 {
		f := float64(freq[r.FirstName()+"|"+r.Surname()])
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
		attr := PairSim(m.Config, ra, rb)
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
		return (1-m.Alpha)*attr + m.Alpha*rel
	}

	for round := 0; round < m.MaxRounds; round++ {
		type scored struct {
			id depgraph.NodeID
			s  float64
		}
		var queue []scored
		for i := range g.Nodes {
			n := &g.Nodes[i]
			ea, eb := store.EntityOf(n.A), store.EntityOf(n.B)
			if ea != er.NoEntity && ea == eb {
				continue
			}
			if s := sim(n); s >= m.Threshold {
				queue = append(queue, scored{id: n.ID, s: s})
			}
		}
		if len(queue) == 0 {
			break
		}
		sort.Slice(queue, func(i, j int) bool {
			if queue[i].s != queue[j].s {
				return queue[i].s > queue[j].s
			}
			return queue[i].id < queue[j].id
		})
		progress := false
		for _, q := range queue {
			n := g.Node(q.id)
			if !val.PairOK(n.A, n.B) {
				continue
			}
			if !val.MergeOK(store.View(n.A), store.View(n.B)) {
				continue
			}
			store.Link(n.A, n.B)
			progress = true
		}
		if !progress {
			break
		}
	}
	return store
}
