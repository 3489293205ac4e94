// Package depgraph builds the dependency graph G_D of Sec. 4.1 of the
// paper: atomic nodes represent pairs of QID values with their string
// similarity, relational nodes represent candidate record pairs, and edges
// connect relational nodes whose underlying records are related by the same
// family relationship on both certificates.
//
// Relational nodes between one pair of certificates that are connected by
// relationship edges form a node group (e.g. the aligned (baby,deceased),
// (mother,mother), (father,father) pairs between a birth and a death
// certificate). Groups are the unit of bootstrapping and merging in the
// SNAPS ER process, because they carry the relationship evidence.
package depgraph

import (
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/constraint"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
)

// compareAttrs lists the attributes compared during graph construction.
var compareAttrs = []model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation}

// AtomicKey identifies an atomic node: an attribute plus a canonical
// (ordered) pair of interned values. Keying by symbol ID instead of by the
// strings makes interning a pair of integer compares and a small-key map
// probe; the canonical order (ascending ID) differs from the old
// lexicographic order, but a canonical order only has to be consistent —
// the set of distinct keys, and therefore the graph, is unchanged.
type AtomicKey struct {
	Attr model.Attr
	A, B model.Sym
}

// MakeAtomicKey returns the canonical key for an attribute value pair.
func MakeAtomicKey(attr model.Attr, a, b model.Sym) AtomicKey {
	if b < a {
		a, b = b, a
	}
	return AtomicKey{Attr: attr, A: a, B: b}
}

// pair packs the key's value pair into one word, the atomic index's key.
func (k AtomicKey) pair() uint64 { return uint64(k.A)<<32 | uint64(k.B) }

// AtomicNode is a pair of QID values with their similarity.
type AtomicNode struct {
	Key AtomicKey
	Sim float64
}

// NodeID indexes a relational node within a Graph.
type NodeID int32

// RelationalNode is a candidate record pair.
type RelationalNode struct {
	ID   NodeID
	A, B model.RecordID
	// Atomic binds, per attribute, the atomic node currently supporting
	// this relational node; -1 when the attribute contributes no atomic
	// node (missing value or similarity below threshold).
	Atomic [model.NumAttrs]int32
	// Group is the node group this node belongs to.
	Group GroupID
	// Neighbours lists relational nodes connected by a shared family
	// relationship, labelled with that relationship.
	Neighbours []Neighbour
	// Merged is set once the ER process links the pair.
	Merged bool
}

// Neighbour is a relationship-labelled edge to another relational node.
type Neighbour struct {
	Node NodeID
	Rel  model.Relationship
}

// GroupID indexes a node group within a Graph.
type GroupID int32

// Group is a set of relational nodes between one certificate pair connected
// by relationship edges. Singleton groups contain one node.
type Group struct {
	ID    GroupID
	Nodes []NodeID
}

// Config tunes dependency-graph construction.
type Config struct {
	// AtomicThreshold is t_a: minimum similarity for a QID value pair to
	// become an atomic node (paper default 0.9).
	AtomicThreshold float64
	// GeoMaxKm converts geocoded address distance to similarity; used only
	// for records with coordinates.
	GeoMaxKm float64
}

// DefaultConfig returns the paper's parameters. At GeoMaxKm 5,
// strsim.GeoSim scores two geocoded addresses within 0.5 km at the atomic
// threshold 0.9 or above, so houses of one settlement do bind, whatever
// their spellings.
func DefaultConfig() Config { return Config{AtomicThreshold: 0.9, GeoMaxKm: 5} }

// Graph is the dependency graph G_D.
type Graph struct {
	Dataset *model.Dataset
	Config  Config

	// Atomics stores the atomic nodes, numbered in first-occurrence order
	// over the candidate stream.
	Atomics []AtomicNode
	// Nodes stores the relational nodes in candidate order; Groups the node
	// groups, numbered by their smallest member.
	Nodes  []RelationalNode
	Groups []Group

	// atomicIndex maps, per compared attribute, the packed canonical value
	// pair of an atomic node (AtomicKey.pair) to its index in Atomics.
	atomicIndex [model.NumAttrs]map[uint64]int32
	// pairRows and pairs index the relational nodes by record pair, keyed
	// by the smaller record: row r is pairs[pairRows[r]:pairRows[r+1]], one
	// entry per node, the larger record<<32 | NodeID, ascending.
	pairRows []int32
	pairs    []uint64
}

// Node returns the relational node with the given id.
func (g *Graph) Node(id NodeID) *RelationalNode { return &g.Nodes[id] }

// Group returns the group with the given id.
func (g *Graph) Group(id GroupID) *Group { return &g.Groups[id] }

// NodeFor returns the relational node for a record pair, if any; a pair
// listed twice resolves to its later node.
func (g *Graph) NodeFor(a, b model.RecordID) (NodeID, bool) {
	a, b = min(a, b), max(a, b)
	if a < 0 || int(a) >= len(g.pairRows)-1 {
		return 0, false
	}
	row := g.pairs[g.pairRows[a]:g.pairRows[a+1]]
	// The insertion point of (b, MaxUint32) is just past every entry of b.
	i, _ := slices.BinarySearch(row, uint64(uint32(b))<<32|math.MaxUint32)
	if i == 0 || uint32(row[i-1]>>32) != uint32(b) {
		return 0, false
	}
	return NodeID(uint32(row[i-1])), true
}

// AtomicSim returns the similarity of the atomic node bound to the given
// attribute of a relational node, and whether one is bound.
func (g *Graph) AtomicSim(n *RelationalNode, attr model.Attr) (float64, bool) {
	idx := n.Atomic[attr]
	if idx < 0 {
		return 0, false
	}
	return g.Atomics[idx].Sim, true
}

// CompareAttr computes the similarity of two records' own values for an
// attribute (CompareValues on a.Sym(attr) and b.Sym(attr)). It returns
// ok=false, as AttrComparable does, when either value is missing (missing
// values are no evidence, not negative evidence).
func CompareAttr(cfg Config, a, b *model.Record, attr model.Attr) (sim float64, ok bool) {
	x, y := a.Sym(attr), b.Sym(attr)
	if x == 0 || y == 0 {
		return 0, false
	}
	return CompareValues(cfg, a, b, attr, x, y), true
}

// CompareValues scores the value pair x, y of an attribute of records a
// and b with the attribute-appropriate comparison function: Jaro-Winkler
// for names, geodesic or bigram-Jaccard similarity for addresses,
// token-Jaccard for occupations. x and y may be other values than the
// records' own (the resolver's PROP-A propagates entity values); addresses
// compare by coordinates only when x and y are the records' own addresses
// and both records are geocoded. A missing value scores 0. Values are
// symbols, so every string-pair comparison goes through the process-wide
// memoised kernels.
func CompareValues(cfg Config, a, b *model.Record, attr model.Attr, x, y model.Sym) float64 {
	if x == 0 || y == 0 {
		return 0
	}
	switch attr {
	case model.FirstName, model.Surname:
		// NameSim extends Jaro-Winkler with Monge-Elkan token matching so
		// transposed or partially recorded double forenames, and
		// multi-token surnames with tussenvoegsels ("van den berg") in the
		// BHIC data, still compare.
		return simcache.NameSim(x, y)
	case model.Address:
		if x == a.Addr && y == b.Addr && a.Lat != 0 && b.Lat != 0 {
			// Geocoded pairs compare by coordinates — a function of the
			// records, not of the value pair, so never memoised.
			return strsim.GeoSim(a.Lat, a.Lon, b.Lat, b.Lon, cfg.GeoMaxKm)
		}
		return simcache.Jaccard(x, y)
	case model.Occupation:
		return simcache.TokenJaccard(x, y)
	}
	return 0
}

// AttrComparable reports whether both records carry a value for attr: the
// ok half of CompareAttr. The bootstrap scorer's strict category counting
// needs only presence.
func AttrComparable(a, b *model.Record, attr model.Attr) bool {
	return a.Sym(attr) != 0 && b.Sym(attr) != 0
}

// BuildStats reports the wall-clock time of the two graph-construction
// phases, matching the "Generate N_A time" and "Generate N_R time" columns
// of Table 6 of the paper, plus the number of candidate pairs scored.
type BuildStats struct {
	GenAtomic     time.Duration
	GenRelational time.Duration
	// Candidates counts the candidate pairs streamed through the build
	// (the sum of all chunk lengths).
	Candidates int
}

// GCRebaseMinCandidates gates the forced collections that re-base GC
// pacing between offline-build phases (the stream→materialise boundary in
// BuildStream, the graph→resolve boundary in er.RunLSH): builds that
// streamed at least this many candidate pairs are DS-scale offline builds
// where peak heap matters more than one GC pause; smaller builds (tests,
// incremental Extend flushes) skip it.
const GCRebaseMinCandidates = 1 << 22

// atomicMiss is a supporting value pair that was not in the atomic index
// when its chunk arrived: candidate ci's attr, scored sim.
type atomicMiss struct {
	key AtomicKey
	sim float64
	ci  int32
}

// buildChunkSize bounds the candidate pairs scored per streamed chunk; the
// per-chunk scratch (atomic bindings, node predicate, per-worker miss lists)
// is sized by it and reused, so graph construction memory no longer grows
// with the total candidate count.
const buildChunkSize = 1 << 16

// Build constructs the dependency graph from blocking candidates. Candidate
// pairs must already be gender-filtered; Build additionally applies the
// constraint validator's pair filter (impossible role types and temporal
// constraints, the paper's "two filtering steps") and requires at least one
// supporting atomic node on a name attribute.
//
// Build is the materialised-slice adapter over BuildStream: the slice is
// fed through the same chunked engine, so both entry points share one
// (golden-tested) code path.
func Build(d *model.Dataset, cfg Config, cands []blocking.Candidate) (*Graph, BuildStats) {
	return BuildStream(d, cfg, func(emit func(chunk []blocking.Candidate)) {
		for lo := 0; lo < len(cands); lo += buildChunkSize {
			hi := lo + buildChunkSize
			if hi > len(cands) {
				hi = len(cands)
			}
			emit(cands[lo:hi])
		}
	})
}

// BuildStream constructs the dependency graph from a stream of candidate
// chunks. stream must call emit once per chunk, in order; chunk slices are
// only read during the emit call and may be reused by the producer.
//
// Each chunk is scored in parallel into fixed-size scratch; the same pass
// resolves every supporting value pair against the atomic index and
// evaluates the node predicate, each worker listing the value pairs the
// index did not yet hold. What stays serial per chunk is interning those
// lists in worker order and appending the surviving relational nodes, both
// in candidate order. Because chunks arrive in the
// order the candidates would occupy in one big slice, the first-occurrence
// orders — and therefore every node and group ID — are identical to the
// monolithic build at any chunk size and GOMAXPROCS. Atomic and
// relational nodes live in separate slices with independent ID spaces, so
// interleaving their construction across chunks cannot renumber anything.
func BuildStream(d *model.Dataset, cfg Config, stream func(emit func(chunk []blocking.Candidate))) (*Graph, BuildStats) {
	g := &Graph{Dataset: d, Config: cfg}
	for _, attr := range compareAttrs {
		g.atomicIndex[attr] = map[uint64]int32{}
	}
	var stats BuildStats
	v := constraint.NewValidator(d)

	// Chunk-sized scratch, reused across chunks: per candidate, the atomic
	// node bound to each attribute and whether it becomes a node; per
	// scoring worker, the misses of its candidate range.
	var (
		atomicOf [][model.NumAttrs]int32
		keep     []bool
		misses   [][]atomicMiss
	)

	// Surviving relational nodes are staged in fixed-size slabs and copied
	// into one exactly-sized g.Nodes slice after the stream ends. Growing a
	// multi-hundred-megabyte slice by appending reallocates ~5x its final
	// footprint cumulatively and transiently holds both the old and new
	// slab; the slab staging allocates each node's bytes twice total and
	// never overshoots. NodeIDs are positional, so staging order IS final
	// order.
	const nodeSlabShift = 14 // 16384 nodes (~1.5 MB) per slab
	var nodeSlabs [][]RelationalNode
	nodeCount := 0

	stream(func(chunk []blocking.Candidate) {
		n := len(chunk)
		if n == 0 {
			return
		}
		stats.Candidates += n
		if cap(atomicOf) < n {
			atomicOf = make([][model.NumAttrs]int32, n)
			keep = make([]bool, n)
		}
		atomicOf, keep = atomicOf[:n], keep[:n]
		workers := par.Procs(n)
		for len(misses) < workers {
			misses = append(misses, nil)
		}

		// Phase 1a, parallel: score the chunk, look every supporting value
		// pair up in the atomic index as it stood when the chunk arrived —
		// nothing writes it during the pass — and evaluate the node
		// predicate. Worker w scores the w-th contiguous candidate range
		// and lists its misses in candidate order. Similarities are pure
		// functions of the value pairs, memoised process-wide by symbol
		// pair (internal/simcache), so repeats across chunks, goroutines
		// and Extend flushes are computed once; BuildOK is a pure function
		// of the two records.
		t0 := time.Now()
		par.Range(workers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				miss := misses[w][:0]
				for ci := w * n / workers; ci < (w+1)*n/workers; ci++ {
					c := chunk[ci]
					ra, rb := d.Record(c.A), d.Record(c.B)
					var atomic [model.NumAttrs]int32
					for i := range atomic {
						atomic[i] = -1
					}
					nameSupport := false
					for _, attr := range compareAttrs {
						x, y := ra.Sym(attr), rb.Sym(attr)
						if x == 0 || y == 0 {
							continue
						}
						s := CompareValues(cfg, ra, rb, attr, x, y)
						if s < cfg.AtomicThreshold {
							continue
						}
						key := MakeAtomicKey(attr, x, y)
						if idx, ok := g.atomicIndex[attr][key.pair()]; ok {
							atomic[attr] = idx
						} else {
							miss = append(miss, atomicMiss{key: key, sim: s, ci: int32(ci)})
						}
						if attr == model.FirstName || attr == model.Surname {
							nameSupport = true
						}
					}
					atomicOf[ci] = atomic
					keep[ci] = nameSupport && v.BuildOK(c.A, c.B)
				}
				misses[w] = miss
			}
		})
		// Phase 1b, serial: intern the misses worker by worker, which is
		// candidate order. Only a pair's first occurrence creates a node,
		// and a first occurrence is a miss whichever chunk it falls in, so
		// atomic ids are those of one serial pass over the stream.
		for _, miss := range misses[:workers] {
			for _, m := range miss {
				atomicOf[m.ci][m.key.Attr] = g.addAtomic(m.key, m.sim)
			}
		}
		stats.GenAtomic += time.Since(t0)

		// Phase 2 (per chunk): append the relational nodes of the pairs that
		// have name support and pass the impossible-role and temporal
		// filters. Both depend only on the pair itself, so filtering per
		// chunk equals filtering after full materialisation.
		t1 := time.Now()
		for ci, c := range chunk {
			if !keep[ci] {
				continue
			}
			si := nodeCount >> nodeSlabShift
			if si == len(nodeSlabs) {
				nodeSlabs = append(nodeSlabs, make([]RelationalNode, 0, 1<<nodeSlabShift))
			}
			nodeSlabs[si] = append(nodeSlabs[si], RelationalNode{
				ID: NodeID(nodeCount), A: c.A, B: c.B, Atomic: atomicOf[ci], Group: -1,
			})
			nodeCount++
		}
		stats.GenRelational += time.Since(t1)
	})

	// For DS-scale builds, re-base GC pacing on the post-stream live set
	// before the heaviest transient of the build (the node materialise
	// below briefly holds the staged slabs and the final slice at once):
	// the producer's blocking state and the chunk scratch just became
	// garbage, but with GOGC headroom the collector would otherwise sit on
	// them through the edge/group phases and let the heap peak near twice
	// the live set. One forced collection here costs well under a second
	// against a multi-minute build and is gated on candidate volume so
	// incremental Extend flushes never pay it.
	atomicOf, keep, misses = nil, nil, nil
	if stats.Candidates >= GCRebaseMinCandidates {
		runtime.GC()
	}

	// Materialise the staged nodes into one exactly-sized slice and drop
	// the slabs before the edge/group phases allocate.
	g.Nodes = make([]RelationalNode, 0, nodeCount)
	for i, slab := range nodeSlabs {
		g.Nodes = append(g.Nodes, slab...)
		nodeSlabs[i] = nil
	}
	nodeSlabs = nil

	// Relationship edges and groups need the complete node set, and the
	// pair index behind NodeFor is built once, at its final size.
	t2 := time.Now()
	g.indexPairs()
	g.connectRelationships()
	g.buildGroups()
	stats.GenRelational += time.Since(t2)
	return g, stats
}

// addAtomic interns an atomic node and returns its index.
func (g *Graph) addAtomic(key AtomicKey, sim float64) int32 {
	idx := g.atomicID(key)
	if idx < 0 {
		idx = int32(len(g.Atomics))
		g.Atomics = append(g.Atomics, AtomicNode{Key: key, Sim: sim})
		g.atomicIndex[key.Attr][key.pair()] = idx
	}
	return idx
}

// atomicID returns the index of the atomic node with the given key, or -1.
func (g *Graph) atomicID(key AtomicKey) int32 {
	if idx, ok := g.atomicIndex[key.Attr][key.pair()]; ok {
		return idx
	}
	return -1
}

// indexPairs fills the pair index behind NodeFor: a counting pass sizes the
// rows, a fill pass in node order writes them, and each row is sorted.
func (g *Graph) indexPairs() {
	g.pairRows = make([]int32, len(g.Dataset.Records)+1)
	for i := range g.Nodes {
		g.pairRows[min(g.Nodes[i].A, g.Nodes[i].B)+1]++
	}
	prefixSum(g.pairRows)
	g.pairs = make([]uint64, len(g.Nodes))
	next := slices.Clone(g.pairRows[:len(g.Dataset.Records)])
	for i := range g.Nodes {
		n := &g.Nodes[i]
		a := min(n.A, n.B)
		g.pairs[next[a]] = uint64(uint32(max(n.A, n.B)))<<32 | uint64(i)
		next[a]++
	}
	par.Range(len(g.pairRows)-1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			slices.Sort(g.pairs[g.pairRows[r]:g.pairRows[r+1]])
		}
	})
}

// prefixSum turns per-row counts, stored one slot to the right of their
// row, into row offsets: row r becomes [rows[r], rows[r+1]).
func prefixSum(rows []int32) {
	for r := 1; r < len(rows); r++ {
		rows[r] += rows[r-1]
	}
}

// relEdge is one certificate relationship of a record: to is related to it
// by rel.
type relEdge struct {
	to  model.RecordID
	rel model.Relationship
}

// certRelations returns every record's certificate relationships, row r
// being edges[rows[r]:rows[r+1]] for record r, in certificate order and
// within a certificate in model.RelationsFor order.
func certRelations(d *model.Dataset) (rows []int32, edges []relEdge) {
	each := func(f func(from model.RecordID, e relEdge)) {
		for ci := range d.Certificates {
			cert := &d.Certificates[ci]
			for _, cr := range model.RelationsFor(cert.Type) {
				from, okF := cert.Roles[cr.From]
				to, okT := cert.Roles[cr.To]
				if okF && okT {
					f(from, relEdge{to: to, rel: cr.Rel})
				}
			}
		}
	}
	rows = make([]int32, len(d.Records)+1)
	each(func(from model.RecordID, _ relEdge) { rows[from+1]++ })
	prefixSum(rows)
	edges = make([]relEdge, rows[len(d.Records)])
	next := slices.Clone(rows[:len(d.Records)])
	each(func(from model.RecordID, e relEdge) {
		edges[next[from]] = e
		next[from]++
	})
	return rows, edges
}

// connectRelationships adds an edge between relational nodes (a1,b1) and
// (a2,b2) when a1 and a2 are related on their certificate by the same
// relationship as b1 and b2 on theirs (e.g. both are motherOf the records
// of the other node).
func (g *Graph) connectRelationships() {
	rows, edges := certRelations(g.Dataset)
	// Each node's neighbour list is written only by the worker owning that
	// node; the relations and the pair index are read-only here, so the
	// wiring loop parallelises without synchronisation, and per-node
	// dedup+sort keeps the result independent of GOMAXPROCS.
	par.Range(len(g.Nodes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := &g.Nodes[i]
			for _, ea := range edges[rows[n.A]:rows[n.A+1]] {
				for _, eb := range edges[rows[n.B]:rows[n.B+1]] {
					if ea.rel != eb.rel {
						continue
					}
					if other, ok := g.NodeFor(ea.to, eb.to); ok {
						n.Neighbours = append(n.Neighbours, Neighbour{Node: other, Rel: ea.rel})
					}
				}
			}
			if len(n.Neighbours) < 2 {
				continue
			}
			// Deduplicate and sort the neighbour list for determinism.
			// (slices.SortFunc, unlike sort.Slice, allocates no closure or
			// reflect swapper — this runs once per multi-neighbour node.)
			slices.SortFunc(n.Neighbours, func(a, b Neighbour) int {
				if a.Node != b.Node {
					return int(a.Node) - int(b.Node)
				}
				return int(a.Rel) - int(b.Rel)
			})
			n.Neighbours = slices.Compact(n.Neighbours)
		}
	})
}

// buildGroups forms node groups as connected components over relationship
// edges, restricted to nodes between the same certificate pair so that a
// group corresponds to one hypothesis "these two certificates mention the
// same family".
func (g *Graph) buildGroups() {
	d := g.Dataset
	// Certificate pairs are pure per-node lookups; precompute them in
	// parallel so the serial component walk below only chases pointers.
	certPairs := make([][2]model.CertID, len(g.Nodes))
	par.Range(len(g.Nodes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := &g.Nodes[i]
			ca, cb := d.Record(n.A).Cert, d.Record(n.B).Cert
			if cb < ca {
				ca, cb = cb, ca
			}
			certPairs[i] = [2]model.CertID{ca, cb}
		}
	})
	// The component walk stays serial: group ids must be numbered by their
	// smallest member node id (the resolver's queue tie-break), which the
	// ascending scan guarantees for free. The walk itself is O(nodes+edges)
	// pointer chasing — negligible next to the similarity phases.
	//
	// Every node lands in exactly one group, so all member lists share one
	// arena sized len(Nodes): the backing array never reallocates, each
	// group's Nodes slice is a window into it, and the millions of
	// per-group slice allocations (most groups are singletons at DS scale)
	// collapse into one slab. Groups themselves stage in fixed-size slabs
	// and materialise exactly sized, like the relational nodes.
	visited := make([]bool, len(g.Nodes))
	memberArena := make([]NodeID, 0, len(g.Nodes))
	var stack []NodeID
	const groupSlabShift = 15 // 32768 groups (~1 MB) per slab
	var groupSlabs [][]Group
	groupCount := 0
	for i := range g.Nodes {
		if visited[i] {
			continue
		}
		gid := GroupID(groupCount)
		start := len(memberArena)
		stack = append(stack[:0], NodeID(i))
		visited[i] = true
		cp := certPairs[i]
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &g.Nodes[id]
			n.Group = gid
			memberArena = append(memberArena, id)
			for _, nb := range n.Neighbours {
				if visited[nb.Node] {
					continue
				}
				if certPairs[nb.Node] != cp {
					continue
				}
				visited[nb.Node] = true
				stack = append(stack, nb.Node)
			}
		}
		members := memberArena[start:len(memberArena):len(memberArena)]
		slices.Sort(members)
		if si := groupCount >> groupSlabShift; si == len(groupSlabs) {
			groupSlabs = append(groupSlabs, make([]Group, 0, 1<<groupSlabShift))
		}
		groupSlabs[groupCount>>groupSlabShift] = append(groupSlabs[groupCount>>groupSlabShift], Group{ID: gid, Nodes: members})
		groupCount++
	}
	g.Groups = make([]Group, 0, groupCount)
	for i, slab := range groupSlabs {
		g.Groups = append(g.Groups, slab...)
		groupSlabs[i] = nil
	}
}
