// Package index implements the two offline index structures of Sec. 6 of
// the paper: the keyword index K, mapping QID values (first names,
// surnames, gender, locations) to entity identifiers in the pedigree
// graph, and the similarity-aware index S, which stores for every indexed
// name the indexed names that share at least one bigram with it and reach
// the threshold s_t, most similar first.
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
// field one pointer-free block of symbol ids and similarities (simBlock),
// immutable once published and read in place, without a lock.
//
// Event years are deliberately NOT materialised as string postings: an
// entity's year span is an interval check against pedigree.Node.MinYear/
// MaxYear at query time, so the index no longer stores one posting entry
// per (entity, year) pair across the whole span.
package index

import (
	"hash/maphash"
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
// Every listed value is an indexed one, hence an interned symbol, so an
// entry is an id and a float and At resolves the string on the way out.
type SimilarList struct {
	ids  []symbol.ID
	sims []float64
	// Computed: the lookup that returned the list had to probe for it.
	Computed bool
}

// Len returns the number of entries.
func (l SimilarList) Len() int { return len(l.ids) }

// At returns the i-th entry.
func (l SimilarList) At(i int) SimilarValue { return SimilarValue{symbol.Str(l.ids[i]), l.sims[i]} }

// Sim returns the similarity the list holds for value, if it lists it: the
// way to ask about one value without walking the strings.
func (l SimilarList) Sim(value string) (float64, bool) {
	if id, ok := symbol.Lookup(value); ok {
		if i := slices.Index(l.ids, id); i >= 0 {
			return l.sims[i], true
		}
	}
	return 0, false
}

// simBlock holds every precomputed list of one name field in CSR form: row
// r is ids[offsets[r]:offsets[r+1]] with sims beside it, and vals[r] is the
// value the row belongs to (itself listed in the row, unless it has no
// bigram). Nothing in the arrays is a pointer, so the collector never scans
// them, and a block is immutable: a flush that changes the field's
// vocabulary writes a new one (update.go), any other shares it whole.
type simBlock struct {
	rows    map[string]uint32
	vals    []symbol.ID
	offsets []uint32
	ids     []symbol.ID
	sims    []float64
}

// row returns the view of row r.
func (b *simBlock) row(r uint32) SimilarList {
	lo, hi := b.offsets[r], b.offsets[r+1]
	return SimilarList{ids: b.ids[lo:hi:hi], sims: b.sims[lo:hi:hi]}
}

// Keyword is the keyword index K. Posting lists are stored delta+varint
// compressed (see postings.go) and are immutable once stored. K has one
// builder, buildKeyword: a flush builds a fresh K like any other build.
type Keyword struct {
	// postings[field][value] lists the entity nodes carrying the value.
	postings [NumFields]map[string]postingList[pedigree.NodeID]
}

// probeSlots is how many probe-cache slots the strings the corpus does not
// know share, per field. A list at DS-4k runs to ~7 KB, so full they hold
// about half a megabyte per field and shard; a constant, because what lands
// in them is whatever callers chose to send.
const probeSlots = 64

// probeEntry is one cached probe: a value S does not index and its list, in
// the two-array form of a block row.
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
	// bigramPost[field][bigram] lists the symbol ids of values containing
	// the bigram, delta+varint compressed in ascending id order. Bigrams
	// are keyed by their packed integer form (strsim.BigramID) rather than
	// two-byte strings, so probing never hashes string keys.
	bigramPost [NumFields]map[strsim.BigramID]postingList[symbol.ID]
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

// Build constructs both indexes from a pedigree graph. simThreshold is s_t
// (paper: 0.5). Precomputation covers first names and surnames (the
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

// bigramPostings is the one builder of S's bigram postings: for every
// bigram of the field's indexed values, the ascending ids of the values
// containing it, encoded. An indexed value is an interned record attribute,
// so its bigram signature comes straight from the per-symbol feature slab.
func bigramPostings(indexed map[string]postingList[pedigree.NodeID]) map[strsim.BigramID]postingList[symbol.ID] {
	raw := map[strsim.BigramID][]symbol.ID{}
	for v := range indexed {
		id := symbol.Intern(v)
		for _, bg := range simcache.Feat(id).Bigrams {
			raw[bg] = append(raw[bg], id)
		}
	}
	post := make(map[strsim.BigramID]postingList[symbol.ID], len(raw))
	for bg, ids := range raw {
		slices.Sort(ids)
		post[bg] = encodePostings(ids)
	}
	return post
}

// buildKeyword is the one builder of K: the postings of the nodes of g
// accepted by keep (nil keeps every node). They accumulate uncompressed and
// are compressed in one pass once sorted and deduplicated.
func buildKeyword(g *pedigree.Graph, keep func(pedigree.NodeID) bool) *Keyword {
	var raw [NumFields]map[string][]pedigree.NodeID
	for f := Field(0); f < NumFields; f++ {
		raw[f] = map[string][]pedigree.NodeID{}
	}
	add := func(f Field, v string, id pedigree.NodeID) {
		raw[f][v] = append(raw[f][v], id)
	}
	for i := range g.Nodes {
		if n := &g.Nodes[i]; keep == nil || keep(n.ID) {
			eachIndexedValue(n, add)
		}
	}
	k := &Keyword{}
	for f := Field(0); f < NumFields; f++ {
		k.postings[f] = make(map[string]postingList[pedigree.NodeID], len(raw[f]))
		for v, ids := range raw[f] {
			slices.Sort(ids)
			k.postings[f][v] = encodePostings(slices.Compact(ids))
		}
	}
	return k
}

// Lookup returns the entities carrying the exact value in the field,
// decoded from the compressed posting list into a fresh slice: the caller
// owns it and may mutate it or keep it across index updates. The query hot
// path avoids the decode allocation entirely via Postings.
func (k *Keyword) Lookup(f Field, value string) []pedigree.NodeID {
	return k.postings[f][value].decode()
}

// Postings returns an allocation-free iterator over the value's posting
// list, in ascending node-id order. The iterator reads the immutable
// compressed bytes, so it stays valid across concurrent index updates.
func (k *Keyword) Postings(f Field, value string) PostingIter[pedigree.NodeID] {
	return k.postings[f][value].iter()
}

// Values returns the number of distinct values indexed for the field.
func (k *Keyword) Values(f Field) int { return len(k.postings[f]) }

// Similar returns the indexed values of the field similar to the probe,
// most similar first, including the probe itself when indexed. A value S
// does not hold is compared against all bigram-sharing values and its list
// kept in the probe cache (Sec. 7) — for an outside string, until a
// colliding one replaces it; concurrent first queries of one value each
// compute the same list. The view reads S in place: a hit allocates nothing.
func (s *Similarity) Similar(f Field, value string) SimilarList {
	if b := s.blocks[f]; b != nil {
		if r, ok := b.rows[value]; ok {
			mMemoHits.Inc()
			return b.row(r)
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

// candScratch is pooled scratch for a probe: the candidate set of its
// bigram scan and the match tables it scores the candidates against, so a
// probe allocates neither.
type candScratch struct {
	ids   []symbol.ID
	kept  []simEntry
	probe simcache.Probe
}

var candPool = sync.Pool{New: func() any { return new(candScratch) }}

// candidates returns, ascending, the distinct symbol ids of the values in
// post sharing at least one of the bigrams. The result aliases the scratch
// and is valid until the scratch goes back to the pool.
func (c *candScratch) candidates(post map[strsim.BigramID]postingList[symbol.ID], bgs []strsim.BigramID) []symbol.ID {
	ids := c.ids[:0]
	for _, bg := range bgs {
		for it := post[bg].iter(); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	c.ids = ids
	return slices.Compact(ids)
}

// computeSimilar is the one-sided probe: it scans the bigram postings for
// candidate values and keeps those with name similarity at or above the
// threshold, as the two arrays of a block row. It serves query-time misses,
// values added by a flush, and is the reference the all-pairs precompute is
// tested against.
//
// The probe's match tables are set once and every candidate is scored
// against them (simcache.Probe). A probe that is already an interned symbol
// (every indexed value, and any query value matching one) takes its tokens
// and bigrams from the cached features. Arbitrary query strings are NEVER
// interned here — an attacker-controlled query stream must not grow the
// symbol table — so unknown probes are set from the raw string, which
// yields identical scores.
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
	cand := sc.candidates(s.bigramPost[f], bgs)
	kept := sc.kept[:0]
	for _, id := range cand {
		if sim := sc.probe.Sim(simcache.Feat(id)); sim >= s.threshold {
			kept = append(kept, simEntry{id, sim})
		}
	}
	slices.SortFunc(kept, compareSim)
	out := SimilarList{ids: make([]symbol.ID, len(kept)), sims: make([]float64, len(kept))}
	for i, e := range kept {
		out.ids[i], out.sims[i] = e.id, e.sim
	}
	sc.kept = kept
	candPool.Put(sc)
	return out
}

// Size reports the number of similarity lists S holds for a field: the
// precomputed ones plus the occupied probe-cache slots.
func (s *Similarity) Size(f Field) int {
	n := 0
	if b := s.blocks[f]; b != nil {
		n = len(b.vals)
	}
	for i := range s.probes[f] {
		if s.probes[f][i].Load() != nil {
			n++
		}
	}
	return n
}

// Bytes is the size of the data S was built with: the arrays of every
// field's block and the encoded bigram postings, by arithmetic over their
// lengths. The maps' own overhead and the probe cache are not in it.
func (s *Similarity) Bytes() int64 {
	n := 0
	for f := range s.blocks {
		if b := s.blocks[f]; b != nil {
			n += 4*(len(b.vals)+len(b.offsets)+len(b.ids)) + 8*len(b.sims)
		}
		for _, pl := range s.bigramPost[f] {
			n += len(pl.data)
		}
	}
	return int64(n)
}
