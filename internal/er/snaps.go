package er

import (
	"container/heap"
	"math"
	"sort"
	"time"

	"github.com/snaps/snaps/internal/constraint"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/symbol"
)

// Config holds the two SNAPS parameters the paper's sensitivity analysis
// varies and the ablation switches used by Table 3 of the paper. The other
// parameters are fixed at the paper's values (the constants below).
type Config struct {
	// MergeThreshold is t_m: minimum average node similarity for merging
	// (paper: 0.85).
	MergeThreshold float64
	// Gamma is γ in Eq. (3): weight of the atomic similarity versus the
	// disambiguation similarity (paper: 0.6).
	Gamma float64

	// Ablation switches (all true for full SNAPS).
	Propagation bool // PROP-A and PROP-C
	Ambiguity   bool // AMB
	Relations   bool // REL
	Refinement  bool // REF
}

// DefaultConfig returns the paper's published parameter values with every
// technique enabled.
func DefaultConfig() Config {
	return Config{
		MergeThreshold: 0.85,
		Gamma:          0.6,
		Propagation:    true, Ambiguity: true, Relations: true, Refinement: true,
	}
}

// The resolver's fixed parameters, at the paper's values (DESIGN §3).
const (
	// bootstrapThreshold is t_b: minimum average atomic similarity of a
	// node group for bootstrap merging.
	bootstrapThreshold = 0.95
	// wMust, wCore and wExtra weight the attribute categories in Eq. (1).
	wMust, wCore, wExtra = 0.5, 0.3, 0.2
	// DensityThreshold is t_d and BridgeSplitSize is t_n, the parameters
	// the resolver runs REF (EntityStore.Refine) with.
	DensityThreshold = 0.3
	BridgeSplitSize  = 15
	// passes is the number of merge+refine passes; the second pass lets
	// records freed by REF relink (paper: iterative process).
	passes = 2
	// maxPropValues caps the entity value set considered during PROP-A so
	// pathological clusters cannot make propagation quadratic.
	maxPropValues = 6
	// extraYearWindow bounds the temporal validity of Extra-attribute
	// disagreement: two records whose events lie within this many years
	// and whose addresses/occupations are both present but dissimilar
	// receive negative evidence; farther apart, the attribute may
	// legitimately have changed and contributes nothing.
	extraYearWindow = 6
)

// Timings reports the duration of each resolution phase, matching the
// columns of Tables 5 and 6, summed over the components Resolve resolves:
// wall clock when they run one after another (GOMAXPROCS 1), and CPU time,
// which may add up to more than the resolution took, when they run
// concurrently. PipelineResult.Resolve is the wall clock of the whole
// resolution.
type Timings struct {
	Bootstrap time.Duration
	Merge     time.Duration
	Refine    time.Duration
}

// Result is the outcome of the resolution: the record clusters plus phase
// timings and counters.
type Result struct {
	Store   *EntityStore
	Timings Timings
	// MergedNodes counts relational nodes that were merged.
	MergedNodes int
	// RefineRemoved and RefineSplits count REF interventions.
	RefineRemoved int
	RefineSplits  int
}

// Resolver runs the SNAPS ER process over a dependency graph.
type Resolver struct {
	cfg   Config
	g     *depgraph.Graph
	d     *model.Dataset
	store *EntityStore
	val   *constraint.Validator

	// nameFreq counts records per (first name, surname, address) symbol
	// combination; the denominator of the disambiguation similarity in
	// Eq. (2). Keying by the symbol triple instead of a joined string
	// makes every lookup three integer compares and no allocation.
	nameFreq map[nameComboKey]int

	// simCache memoises nodeSim per relational node. A node's similarity is
	// a pure function of the current entity views of its two records, so a
	// cached score is valid while both records' store version stamps are
	// unchanged. The merge queue and the REL iteration re-score the same
	// nodes many times between store mutations, making this the hottest
	// cache in the offline build.
	simCache []nodeSimEntry
	// valCache memoises entityValues per record, invalidated by the same
	// version stamps: a record participates in many relational nodes, and
	// each re-score of any of them re-derives the same value lists.
	valCache []valuesEntry
}

// valuesEntry caches the propagated value lists of one record at store
// version ver. Values are interned symbols: every propagated value is some
// record's attribute, so it already has a symbol, and symbol lists feed
// the memoised similarity kernels without re-materialising strings.
type valuesEntry struct {
	ver   uint32
	valid [model.NumAttrs]bool
	vals  [model.NumAttrs][]model.Sym
}

// nodeSimEntry is one memoised node similarity, valid while the version
// stamps of the node's records still equal verA/verB.
type nodeSimEntry struct {
	verA, verB uint32
	sim        float64
	valid      bool
}

// NewResolver prepares a resolver for the graph.
func NewResolver(g *depgraph.Graph, cfg Config) *Resolver {
	r := &Resolver{
		cfg:      cfg,
		g:        g,
		d:        g.Dataset,
		store:    NewEntityStore(g.Dataset),
		val:      constraint.NewValidator(g.Dataset),
		nameFreq: map[nameComboKey]int{},
		simCache: make([]nodeSimEntry, len(g.Nodes)),
		valCache: make([]valuesEntry, len(g.Dataset.Records)),
	}
	for i := range r.d.Records {
		r.nameFreq[nameCombo(&r.d.Records[i])]++
	}
	return r
}

// nameComboKey is the symbol form of the "combination of several QID
// values" of Eq. (2): first name, surname, address.
type nameComboKey [3]model.Sym

// nameCombo is the combination whose frequency feeds the disambiguation
// similarity of Eq. (2). Two records of a rare full combination are very
// likely the same person; a frequent combination (a common name in a
// common place) needs relationship corroboration. Symbols are equal iff
// their strings are equal, so the triple keys the same partition the old
// joined string did.
func nameCombo(rec *model.Record) nameComboKey {
	return nameComboKey{rec.First, rec.Sur, rec.Addr}
}

// resolveGroups runs the full bootstrap → refine → (merge+refine)×passes
// schedule restricted to the given node groups (indices into g.Groups,
// ascending) on r's store, accumulating timings and counters into res.
// Resolve runs it once per component, on the component's groups.
func (r *Resolver) resolveGroups(res *Result, groups []int32) {
	t0 := time.Now()
	r.bootstrap(res, groups)
	res.Timings.Bootstrap += time.Since(t0)
	r.refine(res)

	refineBefore := res.Timings.Refine
	t1 := time.Now()
	for p := 0; p < passes; p++ {
		r.merge(res, groups)
		r.refine(res)
	}
	res.Timings.Merge += time.Since(t1) - (res.Timings.Refine - refineBefore)
}

// refine runs the REF technique when enabled.
func (r *Resolver) refine(res *Result) {
	if !r.cfg.Refinement {
		return
	}
	t := time.Now()
	rem, spl := r.store.Refine(DensityThreshold, BridgeSplitSize)
	res.Timings.Refine += time.Since(t)
	res.RefineRemoved += rem
	res.RefineSplits += spl
}

// bootstrap merges node groups whose average atomic similarity is at least
// t_b. Only proper groups (two or more nodes) are bootstrapped: groups
// carry relationship evidence that singleton pairs lack (Sec. 4.2.6).
func (r *Resolver) bootstrap(res *Result, groups []int32) {
	for _, gi := range groups {
		grp := &r.g.Groups[gi]
		if len(grp.Nodes) < 2 {
			continue
		}
		sum := 0.0
		for _, id := range grp.Nodes {
			sum += r.strictAtomicSim(r.g.Node(id))
		}
		if sum/float64(len(grp.Nodes)) < bootstrapThreshold {
			continue
		}
		ordered := append([]depgraph.NodeID(nil), grp.Nodes...)
		sort.Slice(ordered, func(i, j int) bool {
			si, sj := r.strictAtomicSim(r.g.Node(ordered[i])), r.strictAtomicSim(r.g.Node(ordered[j]))
			if si != sj {
				return si > sj
			}
			return ordered[i] < ordered[j]
		})
		for _, id := range ordered {
			n := r.g.Node(id)
			if r.linkable(n) {
				r.mergeNode(n, res)
			}
		}
	}
}

// merge processes node groups from a priority queue ordered by group size
// and then by average node similarity, applying PROP-C validation, PROP-A
// propagation, AMB similarity, and REL drop-lowest iteration (Sec. 4.2.6).
func (r *Resolver) merge(res *Result, groups []int32) {
	pq := r.buildQueue(groups)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(*queueItem)
		r.mergeGroup(item.nodes, res)
	}
}

// queueItem is a node group awaiting merging.
type queueItem struct {
	nodes []depgraph.NodeID
	size  int
	avg   float64
	gid   depgraph.GroupID
}

// groupQueue orders groups by size (desc), then average similarity (desc),
// then group id for determinism.
type groupQueue []*queueItem

func (q groupQueue) Len() int { return len(q) }
func (q groupQueue) Less(i, j int) bool {
	if q[i].size != q[j].size {
		return q[i].size > q[j].size
	}
	if q[i].avg != q[j].avg {
		return q[i].avg > q[j].avg
	}
	return q[i].gid < q[j].gid
}
func (q groupQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *groupQueue) Push(x any)   { *q = append(*q, x.(*queueItem)) }
func (q *groupQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (r *Resolver) buildQueue(groups []int32) *groupQueue {
	q := &groupQueue{}
	for _, gi := range groups {
		grp := &r.g.Groups[gi]
		// Singleton groups carry no relationship evidence and are never
		// merged: an isolated record pair that matches only by name is
		// indistinguishable from a namesake coincidence.
		if len(grp.Nodes) < 2 {
			continue
		}
		var nodes []depgraph.NodeID
		sum := 0.0
		merged := 0
		for _, id := range grp.Nodes {
			n := r.g.Node(id)
			if n.Merged {
				merged++
			}
			nodes = append(nodes, id)
			// Priority uses the full node similarity so that groups of
			// unambiguous (rare-name) pairs are processed before ambiguous
			// ones, as the paper's disambiguation prioritisation requires.
			sum += r.nodeSim(n)
		}
		if merged == len(nodes) {
			continue
		}
		heap.Push(q, &queueItem{
			nodes: nodes, size: len(nodes),
			avg: sum / float64(len(nodes)), gid: grp.ID,
		})
	}
	return q
}

// mergeGroup runs the within-group iteration: validate constraints, refresh
// similarities under propagation, and either merge the surviving nodes when
// their average similarity reaches t_m or drop the weakest node and retry
// (the REL technique). Without REL the group gets a single all-or-nothing
// evaluation.
func (r *Resolver) mergeGroup(nodes []depgraph.NodeID, res *Result) {
	type scored struct {
		id  depgraph.NodeID
		sim float64
	}
	live := make([]scored, 0, len(nodes))
	for _, id := range nodes {
		live = append(live, scored{id: id})
	}
	for len(live) > 0 {
		// Validate constraints (PROP-C) and score (PROP-A + AMB). Removing
		// constraint-violating nodes from the group is part of the REL
		// technique; without REL they stay and drag the average down, which
		// is exactly the partial-match-group failure Table 3 ablates.
		valid := live[:0]
		for _, sc := range live {
			n := r.g.Node(sc.id)
			sc.sim = r.nodeSim(n)
			if n.Merged {
				// Already-linked nodes stay as supporting evidence for the
				// rest of their group.
				valid = append(valid, sc)
				continue
			}
			if !r.linkable(n) {
				if r.cfg.Relations {
					continue // REL: drop the violating node from the group
				}
				sc.sim = r.nodeSim(n)
			}
			valid = append(valid, sc)
		}
		live = valid
		if len(live) == 0 {
			return
		}
		sum := 0.0
		for _, sc := range live {
			sum += sc.sim
		}
		avg := sum / float64(len(live))
		// A group reduced to fewer than two nodes has lost its relationship
		// corroboration; such a lone pair only merges at bootstrap-level
		// confidence, where the disambiguation similarity alone certifies a
		// near-unique name.
		threshold := r.cfg.MergeThreshold
		if len(live) < 2 {
			threshold = bootstrapThreshold
		}
		if avg >= threshold {
			// Merge the strongest nodes first: when two alignments compete
			// for the same record (e.g. census children of a household),
			// the better one locks in and the link constraints then veto
			// the weaker conflicting alignment on revalidation.
			sort.Slice(live, func(i, j int) bool {
				if live[i].sim != live[j].sim {
					return live[i].sim > live[j].sim
				}
				return live[i].id < live[j].id
			})
			for _, sc := range live {
				n := r.g.Node(sc.id)
				if r.linkable(n) { // revalidate: earlier merges change entities
					r.mergeNode(n, res)
				}
			}
			return
		}
		if !r.cfg.Relations || len(live) <= 1 {
			// Without REL a low group average vetoes the whole group, which
			// is exactly the partial-match-group failure the paper ablates.
			return
		}
		// Drop the node with the lowest similarity and retry.
		lowest := 0
		for i := 1; i < len(live); i++ {
			if live[i].sim < live[lowest].sim {
				lowest = i
			}
		}
		live = append(live[:lowest], live[lowest+1:]...)
	}
}

// linkable checks the PROP-C constraints for a node: when propagation is
// enabled the full cross-product of the two records' current entities is
// validated; otherwise only the pair itself is (the graph build already
// filtered impossible pairs, so this is a cheap recheck).
func (r *Resolver) linkable(n *depgraph.RelationalNode) bool {
	if !r.val.PairOK(n.A, n.B) {
		return false
	}
	if !r.cfg.Propagation {
		return true
	}
	ea, eb := r.store.EntityOf(n.A), r.store.EntityOf(n.B)
	if ea != NoEntity && ea == eb {
		return true
	}
	return r.val.MergeOK(r.store.View(n.A), r.store.View(n.B))
}

// mergeNode links the node's records and marks it merged.
func (r *Resolver) mergeNode(n *depgraph.RelationalNode, res *Result) {
	if n.Merged {
		return
	}
	r.store.Link(n.A, n.B)
	n.Merged = true
	res.MergedNodes++
}

// extraDisagrees reports whether an unbound Extra attribute should count as
// negative evidence for a record pair: both values present and the two
// events close enough in time that the value should not have changed.
func (r *Resolver) extraDisagrees(ra, rb *model.Record, attr model.Attr) bool {
	if ra.Sym(attr) == 0 || rb.Sym(attr) == 0 {
		return false
	}
	dy := ra.Year - rb.Year
	if dy < 0 {
		dy = -dy
	}
	return dy <= extraYearWindow
}

// atomicSimOf computes the category-weighted atomic similarity s_a of
// Eq. (1) from the node's bound atomic nodes, without propagation. Bound
// atomic nodes contribute positively; name attributes without a bound node
// contribute nothing (the surname may legitimately have changed, which
// PROP-A handles); unbound Extra attributes count as negative evidence only
// when the two events are temporally close (see extraYearWindow).
func (r *Resolver) atomicSimOf(n *depgraph.RelationalNode) float64 {
	ra, rb := r.d.Record(n.A), r.d.Record(n.B)
	var sums, counts [3]float64
	for _, attr := range []model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation} {
		cat := model.CategoryOf(attr)
		if sim, ok := r.g.AtomicSim(n, attr); ok {
			counts[cat]++
			sums[cat] += sim
			continue
		}
		if cat == model.Extra && r.extraDisagrees(ra, rb, attr) {
			counts[cat]++
		}
	}
	return r.combineCategories(sums, counts)
}

// combineCategories implements Eq. (1): a weighted average of the per-
// category mean similarities, dropping the weight of categories that have
// no comparable values.
func (r *Resolver) combineCategories(sums, counts [3]float64) float64 {
	weights := [3]float64{wMust, wCore, wExtra}
	num, den := 0.0, 0.0
	for c := 0; c < 3; c++ {
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

// strictAtomicSim scores a node for bootstrapping: every attribute with
// values present on both records counts towards its category, so a
// dissimilar address or occupation (no atomic node) pulls the score down.
// Bootstrap links must be near-certain, so disagreement on any visible
// attribute vetoes them; the merge phase later revisits such pairs with
// disambiguation and propagation evidence.
func (r *Resolver) strictAtomicSim(n *depgraph.RelationalNode) float64 {
	ra, rb := r.d.Record(n.A), r.d.Record(n.B)
	var sums, counts [3]float64
	for _, attr := range []model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation} {
		// Only presence matters here: the category counting needs to know
		// the attribute is comparable, not its similarity.
		if !depgraph.AttrComparable(ra, rb, attr) {
			continue
		}
		cat := model.CategoryOf(attr)
		sim, bound := r.g.AtomicSim(n, attr)
		if !bound && cat == model.Extra && !r.extraDisagrees(ra, rb, attr) {
			continue // stale extra evidence: the value may have changed
		}
		counts[cat]++
		if bound {
			sums[cat] += sim
		}
	}
	return r.combineCategories(sums, counts)
}

// nodeSim computes the full node similarity s of Eq. (3): the convex
// combination of the (possibly propagated) atomic similarity s_a and the
// disambiguation similarity s_d. Ablating AMB sets γ=1.
//
// Must attributes are mandatory (Sec. 4.2.3): when both records carry a
// first name but no sufficiently similar pairing exists — not even through
// propagated entity values — the node scores zero.
func (r *Resolver) nodeSim(n *depgraph.RelationalNode) float64 {
	e := &r.simCache[n.ID]
	va, vb := r.store.ver[n.A], r.store.ver[n.B]
	if e.valid && e.verA == va && e.verB == vb {
		return e.sim
	}
	s := r.nodeSimUncached(n)
	*e = nodeSimEntry{verA: va, verB: vb, sim: s, valid: true}
	return s
}

// nodeSimUncached evaluates the similarity from scratch; see nodeSim.
func (r *Resolver) nodeSimUncached(n *depgraph.RelationalNode) float64 {
	if !r.mustOK(n) {
		return 0
	}
	var sa float64
	if r.cfg.Propagation {
		sa = r.propagatedSim(n)
	} else {
		sa = r.atomicSimOf(n)
	}
	if !r.cfg.Ambiguity {
		return sa
	}
	return r.cfg.Gamma*sa + (1-r.cfg.Gamma)*r.disambiguationSim(n)
}

// mustOK enforces the Must-attribute requirement: the first names must
// match (directly or via propagated entity values). A record with a missing
// first name can never satisfy the requirement in the merge phase — a
// surname-only agreement is far too weak to link on — so such nodes are
// merge-ineligible and can only be linked through the stricter bootstrap,
// where the whole family group must agree.
func (r *Resolver) mustOK(n *depgraph.RelationalNode) bool {
	ra, rb := r.d.Record(n.A), r.d.Record(n.B)
	if ra.First == 0 || rb.First == 0 {
		return false
	}
	if _, ok := r.g.AtomicSim(n, model.FirstName); ok {
		return true
	}
	if !r.cfg.Propagation {
		return false
	}
	for _, x := range r.entityValues(n.A, model.FirstName) {
		for _, y := range r.entityValues(n.B, model.FirstName) {
			if depgraph.CompareValues(r.g.Config, ra, rb, model.FirstName, x, y) >= r.g.Config.AtomicThreshold {
				return true
			}
		}
	}
	return false
}

// disambiguationSim implements Eq. (2): a normalised inverse-document-
// frequency of the records' name combinations. Frequent names yield low
// scores, rare names high scores.
func (r *Resolver) disambiguationSim(n *depgraph.RelationalNode) float64 {
	o := float64(len(r.d.Records))
	if o < 2 {
		return 0
	}
	fa := float64(r.nameFreq[nameCombo(r.d.Record(n.A))])
	fb := float64(r.nameFreq[nameCombo(r.d.Record(n.B))])
	if fa+fb <= 0 {
		return 0
	}
	s := math.Log2(o/(fa+fb)) / math.Log2(o)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// propagatedSim implements PROP-A: instead of the node's original atomic
// bindings, each attribute is scored by the best-matching value pair across
// the two records' current entity value sets, so a woman whose surname
// changed at marriage is compared through her entity's accumulated
// surnames. Only pairs reaching the atomic threshold t_a bind.
func (r *Resolver) propagatedSim(n *depgraph.RelationalNode) float64 {
	ra, rb := r.d.Record(n.A), r.d.Record(n.B)
	var sums, counts [3]float64
	for _, attr := range []model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation} {
		va := r.entityValues(n.A, attr)
		vb := r.entityValues(n.B, attr)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		best := 0.0
		for _, x := range va {
			for _, y := range vb {
				s := depgraph.CompareValues(r.g.Config, ra, rb, attr, x, y)
				if s > best {
					best = s
				}
			}
		}
		// Only a value pair reaching the atomic threshold binds; below it
		// the category contributes no evidence, except for temporally
		// close Extra disagreement, which is negative evidence.
		cat := model.CategoryOf(attr)
		if best >= r.g.Config.AtomicThreshold {
			counts[cat]++
			sums[cat] += best
		} else if cat == model.Extra && r.extraDisagrees(ra, rb, attr) {
			counts[cat]++
		}
	}
	return r.combineCategories(sums, counts)
}

// entityValues returns up to maxPropValues distinct values (as symbols) of
// the attribute across the record's entity, most frequent first, always
// including the record's own value. The result is cached against the
// record's store version stamp and must not be modified.
func (r *Resolver) entityValues(id model.RecordID, attr model.Attr) []model.Sym {
	e := &r.valCache[id]
	if ver := r.store.ver[id]; e.ver != ver {
		*e = valuesEntry{ver: ver}
	}
	if e.valid[attr] {
		return e.vals[attr]
	}
	vals := r.entityValuesUncached(id, attr)
	e.valid[attr] = true
	e.vals[attr] = vals
	return vals
}

func (r *Resolver) entityValuesUncached(id model.RecordID, attr model.Attr) []model.Sym {
	own := r.d.Record(id).Sym(attr)
	vals := r.store.ValueSyms(id, attr) // holds own, when present
	if len(vals) == 0 {
		return nil
	}
	type vc struct {
		v model.Sym
		c int
	}
	list := make([]vc, 0, len(vals))
	for v, c := range vals {
		list = append(list, vc{v, c})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		// The tie-break stays lexicographic on the strings (not on symbol
		// IDs, whose order is interning order): the maxPropValues cap cuts
		// this ordered list, so the tie-break is output-visible.
		return symbol.Str(list[i].v) < symbol.Str(list[j].v)
	})
	out := make([]model.Sym, 0, maxPropValues+1)
	hasOwn := false
	for i := 0; i < len(list) && len(out) < maxPropValues; i++ {
		out = append(out, list[i].v)
		if list[i].v == own {
			hasOwn = true
		}
	}
	if own != 0 && !hasOwn {
		out = append(out, own)
	}
	return out
}
