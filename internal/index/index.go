// Package index implements the two offline index structures of Sec. 6 of
// the paper: the keyword index K, mapping QID values (first names,
// surnames, gender, locations) to entity identifiers in the pedigree
// graph, and the similarity-aware index S, which stores for every indexed
// name the indexed names that share at least one bigram with it and reach
// the threshold s_t, most similar first.
//
// Both are addressed by symbol id: every indexed value is an interned
// record attribute, an S entry names its value by id, and K holds one flat
// array of entity ids per field with offsets indexed by symbol id, so a
// search goes from an S entry to its entities without a string, a hash or
// a lock.
//
// Build fills S with one all-pairs pass per name field (precompute.go):
// name similarity is symmetric, so each unordered bigram-sharing pair is
// scored once, by the unmemoised kernel simcache.NameSimFeatures in its
// match-table form (simcache.Probe), and the score lands in both values'
// lists. The package never touches simcache's process-wide pair memo: S is
// itself the memo of these scores.
//
// At query time, a value not found in S is probed one-sidedly
// (computeSimilar): it is compared against the values sharing a bigram
// with it, and its list is kept to speed up future queries of the same
// value (Sec. 7) — in a small fixed-size cache, because query strings come
// from outside and an index that stored every one of them would grow
// without bound. The same probe computes the lists of the values a flush
// adds (update.go). Only a build or a flush writes the rest of S: per name
// field one block of symbol ids and 16-bit similarity codes into per-page
// tables of exact similarities (simBlock), immutable once published and
// read in place, without a lock.
//
// Event years are deliberately NOT materialised as string postings: an
// entity's year span is an interval check against pedigree.Node.MinYear/
// MaxYear at query time, so the index no longer stores one posting entry
// per (entity, year) pair across the whole span.
package index

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// Lookup metrics of the similarity-aware index: a hit was answered without
// computing (a precomputed list or the probe cache), a miss scanned the
// bigram postings and scored the candidates (Sec. 7's lazy extension of S).
var (
	mMemoHits = obs.Default.Counter("snaps_index_memo_hits_total",
		"Similarity lookups answered from S without computing: a precomputed list or the probe cache.")
	mMemoMisses = obs.Default.Counter("snaps_index_memo_misses_total",
		"Similarity lookups that probed the bigram postings and computed the value's list.")
	// Useful-work ratio of the precompute: kept / scored.
	mPairsScored = obs.Default.Counter("snaps_index_sim_pairs_scored_total",
		"Distinct bigram-sharing name pairs scored by the similarity precompute.")
	mPairsKept = obs.Default.Counter("snaps_index_sim_pairs_kept_total",
		"Scored name pairs that reached the similarity threshold and entered both values' lists.")
	mIncremental = obs.Default.Counter("snaps_index_incremental_total",
		"Name-field similarity blocks a flush patched or shared with the previous generation.")
	mFullRebuild = obs.Default.Counter("snaps_index_full_rebuild_total",
		"Name-field similarity blocks a flush scored from scratch because too many of their values were new.")
)

// Field enumerates the searchable QID fields of the keyword index.
type Field uint8

// Searchable fields.
const (
	FieldFirstName Field = iota
	FieldSurname
	FieldLocation
	FieldGender
	FieldYear
	NumFields
)

// String names the field.
func (f Field) String() string {
	switch f {
	case FieldFirstName:
		return "first_name"
	case FieldSurname:
		return "surname"
	case FieldLocation:
		return "location"
	case FieldGender:
		return "gender"
	case FieldYear:
		return "year"
	}
	return "field?"
}

// SimilarValue pairs an indexed value with its similarity to a probe.
type SimilarValue struct {
	Value string
	Sim   float64
}

// SimilarList is a read-only view of one similarity list, most similar
// first: a row of a field's block or a probe-cache entry, read in place.
// Every listed value is an indexed one, hence an interned symbol, and a
// list's similarities repeat, so an entry is an id and a code into table,
// the exact similarities of the entry's page (see simBlock); At resolves
// both on the way out, Entry resolves only the similarity.
type SimilarList struct {
	ids   []symbol.ID
	codes []uint16
	table []float64
	// self is the id of the value the list was looked up for when the
	// field's block has a row for it, else None. A value without a row is
	// not indexed here, so no list of the shard holds it, and None is in no
	// list: the empty string has no bigram.
	self symbol.ID
	// Computed: the lookup that returned the list had to probe for it.
	Computed bool
}

// Len returns the number of entries.
func (l *SimilarList) Len() int { return len(l.ids) }

// At returns the i-th entry.
func (l *SimilarList) At(i int) SimilarValue { return SimilarValue{symbol.Str(l.ids[i]), l.Sim(i)} }

// Entry returns the i-th entry's value id and similarity, and whether the
// value is the one the list was looked up for: the search's form of an
// entry, which K's Entities takes as it is.
func (l *SimilarList) Entry(i int) (id symbol.ID, sim float64, exact bool) {
	return l.ids[i], l.Sim(i), l.ids[i] == l.self
}

// IDs returns the entries' value ids in list order, a read-only view: the
// form a table keyed by the list's values is filled from.
func (l *SimilarList) IDs() []symbol.ID { return l.ids }

// Sim returns the similarity of the i-th entry.
func (l *SimilarList) Sim(i int) float64 { return l.table[l.codes[i]] }

// SimTable answers which similarity one list holds for a value, by string:
// the form a search asks the query location's list in, once per location
// of every candidate entity. Filling it costs a walk of the list; asking it
// is one hash of the string, without a lock or a scan. The zero value is
// an empty table, and a refilled one reuses its storage.
type SimTable struct {
	sims map[string]float64
}

// Reset makes t the table of l.
func (t *SimTable) Reset(l SimilarList) {
	if t.sims == nil {
		t.sims = make(map[string]float64, l.Len())
	}
	clear(t.sims)
	for i, id := range l.ids {
		t.sims[symbol.Str(id)] = l.Sim(i)
	}
}

// Sim returns the similarity the list holds for value, if it lists it.
func (t *SimTable) Sim(value string) (float64, bool) {
	s, ok := t.sims[value]
	return s, ok
}

// simBlock holds every precomputed list of one name field in CSR form, row
// r being the list of the value of rank r (see Similarity.ranked): its ids
// are ids[offsets[r]:offsets[r+1]] with codes beside them, and it lists
// the value itself unless the value has no bigram. An entry is 6 bytes:
// its similarity is the code's value in the table of the row's page, a run
// of consecutive rows whose table holds at most maxTable values. offsets
// caps a block at 2^32 entries and a page's table caps one row at maxTable
// distinct similarities, which only a block of more than maxTable values
// can reach; neither is checked on the read path, and a coder panics
// rather than write a code that does not fit. Nothing in the arrays but
// the page tables is a pointer, so the collector never scans them, and a
// block is immutable: a flush that changes the field's vocabulary writes a
// new one (update.go), any other shares it whole.
type simBlock struct {
	offsets []uint32
	ids     []symbol.ID
	codes   []uint16
	pages   []simPage
}

// simPage is a run of a block's rows, from first up to the next page's
// first, and the similarities their codes index.
type simPage struct {
	first uint32
	table []float64
}

// maxTable is how many values a page's table may hold: every uint16 code.
const maxTable = 1 << 16

// page returns the index of the page row r is on.
func (b *simBlock) page(r uint32) int {
	p, found := slices.BinarySearchFunc(b.pages, r, func(p simPage, r uint32) int { return cmp.Compare(p.first, r) })
	if !found {
		p--
	}
	return p
}

// row returns the view of the field's row r, the list of the value of rank
// r.
func (s *Similarity) row(f Field, r int) SimilarList {
	b := s.blocks[f]
	lo, hi := b.offsets[r], b.offsets[r+1]
	return SimilarList{ids: b.ids[lo:hi:hi], codes: b.codes[lo:hi:hi], table: b.pages[b.page(uint32(r))].table, self: s.ranked[f][r]}
}

// rank returns the place of value in ranked, a vocabulary in string order,
// and whether it is there.
func rank(ranked []symbol.ID, value string) (int, bool) {
	return slices.BinarySearchFunc(ranked, value, func(id symbol.ID, v string) int { return strings.Compare(symbol.Str(id), v) })
}

// coder writes the pages of consecutive rows of one block: it opens a page
// before any row that could take the open page's table past maxTable values,
// and gives each distinct similarity of a page one code.
type coder struct {
	pages []simPage
	// slots inverts the open page's table: open addressing on the
	// similarity's bits, linear probing, at most half full.
	slots []codeSlot
	shift uint8 // 64 - log2(len(slots))
}

// codeSlot is a slot of the inverted table: code+1 and its similarity's
// bits, or 0 when free.
type codeSlot struct {
	bits uint64
	code uint32
}

func newCoder() *coder { return &coder{slots: make([]codeSlot, 1<<8), shift: 64 - 8} }

// row starts a row of n entries numbered r, on a new page unless the open
// one has room for n more values. A row longer than maxTable starts a page
// of its own and still fits as long as its similarities do.
func (c *coder) row(r uint32, n int) {
	if last := len(c.pages) - 1; last < 0 || len(c.pages[last].table) > 0 && len(c.pages[last].table)+n > maxTable {
		c.pages = append(c.pages, simPage{first: r})
		clear(c.slots)
	}
}

// slot returns the slot holding bits, or the free slot where it belongs.
func (c *coder) slot(bits uint64) *codeSlot {
	mask := len(c.slots) - 1
	for i := int(bits * 0x9e3779b97f4a7c15 >> c.shift); ; i = (i + 1) & mask {
		if sl := &c.slots[i]; sl.code == 0 || sl.bits == bits {
			return sl
		}
	}
}

// code returns the open page's code for sim, adding sim to its table if
// the page has not seen it.
func (c *coder) code(sim float64) uint16 {
	bits := math.Float64bits(sim)
	sl := c.slot(bits)
	if sl.code != 0 {
		return uint16(sl.code - 1)
	}
	p := &c.pages[len(c.pages)-1]
	if len(p.table) == maxTable {
		panic("index: a similarity row holds more distinct values than a page's table can code")
	}
	p.table = append(p.table, sim)
	*sl = codeSlot{bits, uint32(len(p.table))}
	if 2*len(p.table) > len(c.slots) {
		// Double and re-insert the table, which lists every key in code order.
		c.slots, c.shift = make([]codeSlot, 2*len(c.slots)), c.shift-1
		for code, v := range p.table {
			b := math.Float64bits(v)
			*c.slot(b) = codeSlot{b, uint32(code) + 1}
		}
	}
	return uint16(len(p.table) - 1)
}

// Keyword is the keyword index K: per field, the entities carrying each
// value, addressed by the value's symbol id. It is immutable once built and
// has one builder, buildKeyword: a flush builds a fresh K like any other
// build.
type Keyword struct {
	fields [NumFields]keyField
}

// keyField is one field of K in CSR form, the row index being the symbol
// id: the entities carrying value id are nodes[offsets[id]:offsets[id+1]],
// ascending. offsets runs to the largest id the field indexes, so an id past
// its end has no entities, as has any id in range the field does not index.
// vals lists the ids that have entities, ascending: the field's vocabulary.
// A name field also holds the transpose, the row index being the entity:
// the values entity n carries are values[byNode[n]:byNode[n+1]], in the
// order of pedigree.Node's, and byNode runs to the largest entity the field
// indexes. A posting is 4 bytes and the offsets 4 per symbol up to the
// largest (per entity, for the transpose), and none of it is a pointer.
type keyField struct {
	vals    []symbol.ID
	offsets []uint32
	nodes   []pedigree.NodeID
	byNode  []uint32
	values  []symbol.ID
}

// entities returns the row of id, a view into the field.
func (kf *keyField) entities(id symbol.ID) []pedigree.NodeID {
	if int(id) >= len(kf.offsets)-1 {
		return nil
	}
	lo, hi := kf.offsets[id], kf.offsets[id+1]
	return kf.nodes[lo:hi:hi]
}

// valuesOf returns the values entity n carries, a view into the field; nil
// when the field has no transpose.
func (kf *keyField) valuesOf(n pedigree.NodeID) []symbol.ID {
	if int(n) >= len(kf.byNode)-1 {
		return nil
	}
	lo, hi := kf.byNode[n], kf.byNode[n+1]
	return kf.values[lo:hi:hi]
}

// keyPosting is one (value, entity) pair of a field as buildKeyword finds it.
type keyPosting struct {
	id   symbol.ID
	node pedigree.NodeID
}

// newKeyField lays one field's pairs out as its CSR: counted per id into
// offsets, prefix-summed, and scattered in the order given, using each row's
// start as its cursor and shifting the cursors back into starts after. The
// pairs come in ascending entity order, an entity's values are distinct
// (pedigree.Node's are), so every row is ascending and duplicate-free.
// With transpose, the pairs read in that order are already the transpose's
// values, and its offsets are counted per entity the same way.
func newKeyField(pairs []keyPosting, transpose bool) keyField {
	if len(pairs) == 0 {
		return keyField{}
	}
	top := symbol.None
	for _, p := range pairs {
		top = max(top, p.id)
	}
	var kf keyField
	if transpose {
		last := pairs[len(pairs)-1].node
		kf.byNode, kf.values = make([]uint32, last+2), make([]symbol.ID, len(pairs))
		for i, p := range pairs {
			kf.byNode[p.node+1]++
			kf.values[i] = p.id
		}
		for n := range last + 1 {
			kf.byNode[n+1] += kf.byNode[n]
		}
	}
	kf.offsets, kf.nodes = make([]uint32, top+2), make([]pedigree.NodeID, len(pairs))
	for _, p := range pairs {
		kf.offsets[p.id+1]++
	}
	for id := range top + 1 {
		if kf.offsets[id+1] > 0 {
			kf.vals = append(kf.vals, id)
		}
		kf.offsets[id+1] += kf.offsets[id]
	}
	for _, p := range pairs {
		kf.nodes[kf.offsets[p.id]] = p.node
		kf.offsets[p.id]++
	}
	copy(kf.offsets[1:], kf.offsets[:top+1])
	kf.offsets[0] = 0
	return kf
}

// probeSlots is how many probe-cache slots the strings the corpus does not
// know share, per field. A list at DS-4k runs to ~7 KB, so full they hold
// about half a megabyte per field and shard; a constant, because what lands
// in them is whatever callers chose to send.
const probeSlots = 64

// probeEntry is one cached probe: a value S does not index and its list, in
// the form of a block row with a table of its own.
type probeEntry struct {
	value string
	list  SimilarList
}

// Similarity is the similarity-aware index S: for every indexed name it
// stores the indexed values with similarity >= threshold. blocks and
// bigramPost are written by Build and UpdateSubset only and are immutable
// once either returns, so readers take no lock; probes is the one part a
// query writes.
type Similarity struct {
	threshold float64
	// blocks[field] holds the precomputed list of every indexed name (the
	// value itself included, first). Locations are not precomputed, and a
	// field with no values has no lists: nil.
	blocks [NumFields]*simBlock
	// probes[field] keeps the lists of probed values (Sec. 7's "store an
	// unseen value's list") and starts empty in every generation. A value
	// the corpus knew at build time — an interned symbol: a name only
	// another shard indexes, a surname asked as a first name, any location —
	// has the slot of its symbol id to itself and is computed once; there
	// are only as many as the vocabulary. Every other string is outside
	// input and shares the last probeSlots slots, direct-mapped by hash: a
	// collision overwrites.
	probes [NumFields][]atomic.Pointer[probeEntry]
	// ranked[field] is the field's vocabulary in string order: a value's
	// rank is its place there, the order a list breaks ties in and the row
	// of its list in the field's block.
	ranked [NumFields][]symbol.ID
	// bigramPost[field][bigram] lists the ranks of the values containing
	// the bigram, ascending. Bigrams are keyed by their packed integer form
	// (strsim.BigramID) rather than two-byte strings, so probing never
	// hashes string keys.
	bigramPost [NumFields]map[strsim.BigramID][]uint32
}

// probeSeed keys the probe cache's hash, so which values collide is not
// something a caller can choose.
var probeSeed = maphash.MakeSeed()

// probeSlot maps a value to its probe-cache slot.
func (s *Similarity) probeSlot(f Field, value string) *atomic.Pointer[probeEntry] {
	p := s.probes[f]
	known := len(p) - probeSlots
	if id, ok := symbol.Lookup(value); ok && int(id) < known {
		return &p[id]
	}
	return &p[known+int(maphash.String(probeSeed, value)%probeSlots)]
}

// eachIndexedValue calls add for every (field, value) the node is indexed
// under: the one statement of what K holds per entity. Years are matched by
// interval against Node.MinYear/MaxYear at query time; no per-year postings
// are stored.
func eachIndexedValue(n *pedigree.Node, add func(Field, string, pedigree.NodeID)) {
	for _, v := range n.FirstNames {
		add(FieldFirstName, v, n.ID)
	}
	for _, v := range n.Surnames {
		add(FieldSurname, v, n.ID)
	}
	for _, v := range n.Locations {
		add(FieldLocation, v, n.ID)
	}
	if gd := n.Gender.String(); gd != "?" {
		add(FieldGender, gd, n.ID)
	}
}

// SimThreshold is the paper's similarity-list threshold s_t: a value's
// list S keeps the values at least this similar to it. Every serving
// index is built with it.
const SimThreshold = 0.5

// Build constructs both indexes from a pedigree graph. simThreshold is s_t
// (paper: SimThreshold). Precomputation covers first names and surnames (the
// mandatory query fields) and runs across GOMAXPROCS workers with
// deterministic output; locations are extended lazily at query time.
func Build(g *pedigree.Graph, simThreshold float64) (*Keyword, *Similarity) {
	return BuildSubset(g, nil, simThreshold)
}

// BuildSubset constructs both indexes over the subset of g's nodes
// accepted by keep (nil keeps every node, making it exactly Build). The
// serving-tier shards (internal/shard) use it to give each shard an index
// over only the entities it owns: per-value posting lists are the global
// lists filtered to kept nodes, and every similarity list is computed over
// the shard's own value universe, so a value's list on a shard is the
// global list filtered to values the shard indexes — order preserved,
// similarities identical.
func BuildSubset(g *pedigree.Graph, keep func(pedigree.NodeID) bool, simThreshold float64) (*Keyword, *Similarity) {
	defer obs.StartStage("index_build").Stop()
	k := buildKeyword(g, keep)
	// Against an empty previous index every value is added, so every name
	// field with values is precomputed.
	s, _ := updateSimilarity(k, &Keyword{}, &Similarity{threshold: simThreshold}, rebuildAbove)
	return k, s
}

// stringOrder returns the vocabulary vals in string order: the field's
// ranks.
func stringOrder(vals []symbol.ID) []symbol.ID {
	ranked := slices.Clone(vals)
	slices.SortFunc(ranked, func(x, y symbol.ID) int { return strings.Compare(symbol.Str(x), symbol.Str(y)) })
	return ranked
}

// bigramPostings is the one builder of S's bigram postings: for every
// bigram of the field's indexed values, the ascending ranks of the values
// containing it in ranked, the field's vocabulary in string order. An
// indexed value is an interned record attribute, so its bigram signature
// comes straight from the per-symbol feature slab.
func bigramPostings(ranked []symbol.ID) map[strsim.BigramID][]uint32 {
	post := map[strsim.BigramID][]uint32{}
	for r, id := range ranked {
		for _, bg := range simcache.Feat(id).Bigrams {
			post[bg] = append(post[bg], uint32(r))
		}
	}
	return post
}

// buildKeyword is the one builder of K: the postings of the nodes of g
// accepted by keep (nil keeps every node), visited in id order. An indexed
// value is a record attribute, so interning it finds its symbol.
func buildKeyword(g *pedigree.Graph, keep func(pedigree.NodeID) bool) *Keyword {
	var pairs [NumFields][]keyPosting
	add := func(f Field, v string, id pedigree.NodeID) {
		pairs[f] = append(pairs[f], keyPosting{symbol.Intern(v), id})
	}
	for i := range g.Nodes {
		if n := &g.Nodes[i]; keep == nil || keep(n.ID) {
			eachIndexedValue(n, add)
		}
	}
	k := &Keyword{}
	for f := range k.fields {
		k.fields[f] = newKeyField(pairs[f], slices.Contains(nameFields, Field(f)))
	}
	return k
}

// Entities returns the entities carrying the value whose symbol id is id,
// ascending: a read-only view into K, which no update writes. A value the
// field does not index has none. It is the search's path into K: one
// bounds check and a slice, with no string, hash or lock.
func (k *Keyword) Entities(f Field, id symbol.ID) []pedigree.NodeID {
	return k.fields[f].entities(id)
}

// NodeValues returns the symbol ids of the values of a name field that
// entity n carries, in the order of pedigree.Node's: a read-only view into
// K, empty for an entity the field does not index.
func (k *Keyword) NodeValues(f Field, n pedigree.NodeID) []symbol.ID {
	return k.fields[f].valuesOf(n)
}

// IDLimit returns one past the largest symbol id the field indexes: a table
// addressed by the field's value ids needs that many slots, and an id at or
// past it has no entities.
func (k *Keyword) IDLimit(f Field) int { return max(len(k.fields[f].offsets)-1, 0) }

// Values returns the number of distinct values indexed for the field.
func (k *Keyword) Values(f Field) int { return len(k.fields[f].vals) }

// Similar returns the indexed values of the field similar to the probe,
// most similar first, including the probe itself when indexed. A value S
// does not hold is compared against all bigram-sharing values and its list
// kept in the probe cache (Sec. 7) — for an outside string, until a
// colliding one replaces it; concurrent first queries of one value each
// compute the same list. The view reads S in place: a hit allocates nothing.
func (s *Similarity) Similar(f Field, value string) SimilarList {
	if s.blocks[f] != nil {
		if r, ok := rank(s.ranked[f], value); ok {
			mMemoHits.Inc()
			return s.row(f, r)
		}
	}
	slot := s.probeSlot(f, value)
	if e := slot.Load(); e != nil && e.value == value {
		mMemoHits.Inc()
		return e.list
	}
	mMemoMisses.Inc()
	out := s.computeSimilar(f, value)
	// The clone keeps the cache from pinning whatever buffer the caller's
	// string was cut from.
	slot.Store(&probeEntry{value: strings.Clone(value), list: out})
	out.Computed = true
	return out
}

// simEntry is one list entry on its own, the form entries are ordered in.
type simEntry struct {
	id  symbol.ID
	sim float64
}

// compareSim is the one similarity-list order: similarity descending,
// value ascending. Values are distinct within a list, so the order is total
// and a sorted list does not depend on the order its entries arrived in.
func compareSim(x, y simEntry) int {
	if x.sim != y.sim {
		if x.sim > y.sim {
			return -1
		}
		return 1
	}
	return strings.Compare(symbol.Str(x.id), symbol.Str(y.id))
}

// rankedSim is one kept candidate of a probe: its rank and similarity.
type rankedSim struct {
	rank uint32
	sim  float64
}

// candScratch is pooled scratch for a probe: the candidate set of its
// bigram scan and the match tables it scores the candidates against, so a
// probe allocates neither.
type candScratch struct {
	// marks is a bitset over the field's ranks, all zero between probes.
	marks []uint64
	ranks []uint32
	kept  []rankedSim
	probe simcache.Probe
}

var candPool = sync.Pool{New: func() any { return new(candScratch) }}

// candidates returns, ascending, the distinct ranks below n of the values
// in post sharing at least one of the bigrams: each posting marks its rank,
// and a scan of the marks reads them out in order and clears them. The
// result aliases the scratch and is valid until the scratch goes back to
// the pool.
func (c *candScratch) candidates(post map[strsim.BigramID][]uint32, bgs []strsim.BigramID, n int) []uint32 {
	words := (n + 63) / 64
	marks := slices.Grow(c.marks[:0], words)[:words]
	for _, bg := range bgs {
		for _, r := range post[bg] {
			marks[r/64] |= 1 << (r % 64)
		}
	}
	ranks := c.ranks[:0]
	for w, m := range marks {
		for ; m != 0; m &= m - 1 {
			ranks = append(ranks, uint32(w*64+bits.TrailingZeros64(m)))
		}
		marks[w] = 0
	}
	c.marks, c.ranks = marks, ranks
	return ranks
}

// computeSimilar is the one-sided probe: it scans the bigram postings for
// candidate values and keeps those with name similarity at or above the
// threshold, in the form of a block row with a table of its own. It serves
// query-time misses, values added by a flush, and is the reference the
// all-pairs precompute is tested against.
//
// The probe's match tables are set once and every candidate is scored
// against them (simcache.Probe). A probe that is already an interned symbol
// (every indexed value, and any query value matching one) takes its tokens
// and bigrams from the cached features. Arbitrary query strings are NEVER
// interned here — an attacker-controlled query stream must not grow the
// symbol table — so unknown probes are set from the raw string, which
// yields identical scores. The candidates come in rank order, which is
// value order, so the list's order (compareSim) is ordered on integers:
// similarity descending, then rank.
func (s *Similarity) computeSimilar(f Field, value string) SimilarList {
	sc := candPool.Get().(*candScratch)
	var bgBuf [64]strsim.BigramID
	var bgs []strsim.BigramID
	if id, interned := symbol.Lookup(value); interned {
		pf := simcache.Feat(id)
		sc.probe.Set(pf)
		bgs = pf.Bigrams
	} else {
		sc.probe.SetString(value)
		bgs = strsim.AppendBigramIDs(bgBuf[:0], value)
	}
	ranked := s.ranked[f]
	kept := sc.kept[:0]
	for _, r := range sc.candidates(s.bigramPost[f], bgs, len(ranked)) {
		if sim := sc.probe.Sim(simcache.Feat(ranked[r])); sim >= s.threshold {
			kept = append(kept, rankedSim{r, sim})
		}
	}
	slices.SortFunc(kept, func(x, y rankedSim) int {
		if x.sim != y.sim {
			if x.sim > y.sim {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.rank, y.rank)
	})
	// Equal similarities are adjacent in the ordered list, so its table is
	// the list's run heads and a code is the number of heads before it.
	distinct := 0
	for i, e := range kept {
		if i == 0 || math.Float64bits(e.sim) != math.Float64bits(kept[i-1].sim) {
			distinct++
		}
	}
	if distinct > maxTable {
		panic("index: a similarity list holds more distinct values than a table can code")
	}
	out := SimilarList{ids: make([]symbol.ID, len(kept)), codes: make([]uint16, len(kept)), table: make([]float64, 0, distinct)}
	for i, e := range kept {
		if i == 0 || math.Float64bits(e.sim) != math.Float64bits(kept[i-1].sim) {
			out.table = append(out.table, e.sim)
		}
		out.ids[i], out.codes[i] = ranked[e.rank], uint16(len(out.table)-1)
	}
	sc.kept = kept
	candPool.Put(sc)
	return out
}

// Bytes is the size of the data S was built with: the arrays of every
// field's block — 6 bytes per entry, 8 per page-table value, 4 per row in
// offsets — the rank order, 4 bytes per value, and the bigram postings, 4
// bytes per entry, by arithmetic over their lengths. The maps' own
// overhead and the probe cache are not in it.
func (s *Similarity) Bytes() int64 {
	n := 0
	for f := range s.blocks {
		n += 4 * len(s.ranked[f])
		if b := s.blocks[f]; b != nil {
			n += 4*(len(b.offsets)+len(b.ids)) + 2*len(b.codes)
			for _, p := range b.pages {
				n += 8 * len(p.table)
			}
		}
		for _, ranks := range s.bigramPost[f] {
			n += 4 * len(ranks)
		}
	}
	return int64(n)
}
