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
// with it, and the discovered similar values are added to S to speed up
// future queries of the same value (Sec. 7). The same probe computes the
// lists of the values a flush adds (update.go). S is striped across
// hash-keyed shards so concurrent lookups contend only on values landing in
// the same stripe, and concurrent first lookups of the same unknown value
// compute its similarity list once (the others wait for the leader) instead
// of racing through duplicate bigram scans.
//
// Event years are deliberately NOT materialised as string postings: an
// entity's year span is an interval check against pedigree.Node.MinYear/
// MaxYear at query time, so the index no longer stores one posting entry
// per (entity, year) pair across the whole span.
package index

import (
	"slices"
	"strings"
	"sync"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// Memoisation metrics of the similarity-aware index: a miss is a
// query-time probe that had to scan the bigram postings and compute
// similarities before being stored (Sec. 7's lazy extension of S); an
// inflight wait is a concurrent probe of the same value that reused the
// leader's computation instead of duplicating it.
var (
	mMemoHits = obs.Default.Counter("snaps_index_memo_hits_total",
		"Similarity lookups answered from the memoised index S.")
	mMemoMisses = obs.Default.Counter("snaps_index_memo_misses_total",
		"Similarity lookups that computed and memoised a new value.")
	mMemoWaits = obs.Default.Counter("snaps_index_memo_inflight_waits_total",
		"Similarity lookups that waited for a concurrent computation of the same value.")
	// Useful-work ratio of the precompute: kept / scored.
	mPairsScored = obs.Default.Counter("snaps_index_sim_pairs_scored_total",
		"Distinct bigram-sharing name pairs scored by the similarity precompute.")
	mPairsKept = obs.Default.Counter("snaps_index_sim_pairs_kept_total",
		"Scored name pairs that reached the similarity threshold and entered both values' lists.")
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

// Keyword is the keyword index K. Posting lists are stored delta+varint
// compressed (see postings.go); lists are immutable once stored, so
// incremental updates share them across generations by reference.
type Keyword struct {
	// postings[field][value] lists the entity nodes carrying the value.
	postings [NumFields]map[string]postingList
}

// memoShards stripes the similarity memo; must be a power of two. 32
// stripes keep lock contention negligible at GOMAXPROCS-scale query
// concurrency without bloating the struct.
const memoShards = 32

// memoShard is one stripe of the memo: its own lock, its slice of the
// memoised lists, and the in-flight computations being deduplicated.
type memoShard struct {
	mu       sync.RWMutex
	sims     map[string][]SimilarValue
	inflight map[string]*memoCall
}

// memoCall is one leader computation concurrent probes of the same value
// wait on. out is written before wg.Done, so waiters reading it after
// wg.Wait observe the completed list.
type memoCall struct {
	wg  sync.WaitGroup
	out []SimilarValue
}

// Similarity is the similarity-aware index S: for every known string value
// of a field it stores the other values with similarity >= threshold. It
// memoises query-time extensions, so lookups after the first are O(1).
type Similarity struct {
	threshold float64
	// shards[field][stripe] holds the memoised lists of values hashing to
	// the stripe (exact value included, first).
	shards [NumFields][memoShards]memoShard
	// bigramPost[field][bigram] lists the symbol ids of values containing
	// the bigram, delta+varint compressed in ascending id order. Bigrams
	// are keyed by their packed integer form (strsim.BigramID) rather than
	// two-byte strings, so probing never hashes string keys.
	// Read-only after Build — scanned without locks.
	bigramPost [NumFields]map[strsim.BigramID]symList
}

// shardOf stripes a value by FNV-1a hash.
func shardOf(value string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(value); i++ {
		h ^= uint32(value[i])
		h *= 16777619
	}
	return h & (memoShards - 1)
}

func (s *Similarity) shard(f Field, value string) *memoShard {
	return &s.shards[f][shardOf(value)]
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
	// Postings accumulate uncompressed and are compressed in one pass once
	// sorted and deduplicated.
	var raw [NumFields]map[string][]pedigree.NodeID
	for f := Field(0); f < NumFields; f++ {
		raw[f] = map[string][]pedigree.NodeID{}
	}
	s := &Similarity{threshold: simThreshold}
	for f := Field(0); f < NumFields; f++ {
		for i := range s.shards[f] {
			s.shards[f][i].sims = map[string][]SimilarValue{}
			s.shards[f][i].inflight = map[string]*memoCall{}
		}
		s.bigramPost[f] = map[strsim.BigramID]symList{}
	}

	add := func(f Field, v string, id pedigree.NodeID) {
		raw[f][v] = append(raw[f][v], id)
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if keep != nil && !keep(n.ID) {
			continue
		}
		for _, v := range n.FirstNames {
			add(FieldFirstName, v, n.ID)
		}
		for _, v := range n.Surnames {
			add(FieldSurname, v, n.ID)
		}
		for _, v := range n.Locations {
			add(FieldLocation, v, n.ID)
		}
		if n.Gender.String() != "?" {
			add(FieldGender, n.Gender.String(), n.ID)
		}
		// Years are matched by interval against Node.MinYear/MaxYear at
		// query time; no per-year postings are stored.
	}
	k := &Keyword{}
	for f := Field(0); f < NumFields; f++ {
		k.postings[f] = make(map[string]postingList, len(raw[f]))
		for v, ids := range raw[f] {
			slices.Sort(ids)
			k.postings[f][v] = encodePostings(slices.Compact(ids))
		}
	}

	// One walk per string field over its sorted values builds the bigram
	// postings twice over: by symbol id (stored, what query-time probes
	// scan) and by dense local id (the value's rank, what the all-pairs
	// pass below scans). Every indexed value is an interned record
	// attribute, so Intern here is a map hit, not an insert, and the
	// value's bigram signature comes straight from the per-symbol feature
	// slab.
	var sets [NumFields]valueSet
	for _, f := range simFields {
		vs := &sets[f]
		vs.vals = make([]string, 0, len(k.postings[f]))
		for v := range k.postings[f] {
			vs.vals = append(vs.vals, v)
		}
		slices.Sort(vs.vals)
		vs.feats = make([]*simcache.Features, len(vs.vals))
		vs.post = map[strsim.BigramID][]int32{}
		bgRaw := map[strsim.BigramID][]symbol.ID{}
		for i, v := range vs.vals {
			id := symbol.Intern(v)
			vs.feats[i] = simcache.Feat(id)
			for _, bg := range vs.feats[i].Bigrams {
				bgRaw[bg] = append(bgRaw[bg], id)
				vs.post[bg] = append(vs.post[bg], int32(i))
			}
		}
		for bg, ids := range bgRaw {
			slices.Sort(ids)
			s.bigramPost[f][bg] = encodeSyms(ids)
		}
	}
	// Precompute similarities for the name fields (the dominant cost of a
	// cold start and of every full rebuild); locations are extended lazily
	// at query time.
	for _, f := range []Field{FieldFirstName, FieldSurname} {
		s.precompute(f, &sets[f])
	}
	return k, s
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
func (k *Keyword) Postings(f Field, value string) PostingIter {
	return k.postings[f][value].iter()
}

// Values returns the number of distinct values indexed for the field.
func (k *Keyword) Values(f Field) int { return len(k.postings[f]) }

// Similar returns the indexed values of the field similar to the probe,
// most similar first, including the probe itself when indexed. Results are
// memoised in S: the first query for an unknown value computes similarities
// against all bigram-sharing values and stores them (Sec. 7). Concurrent
// first queries of the same value compute once; the rest wait for the
// leader. The returned slice is shared and read-only.
func (s *Similarity) Similar(f Field, value string) []SimilarValue {
	sh := s.shard(f, value)
	sh.mu.RLock()
	out, ok := sh.sims[value]
	sh.mu.RUnlock()
	if ok {
		mMemoHits.Inc()
		return out
	}

	sh.mu.Lock()
	if out, ok := sh.sims[value]; ok { // memoised while we upgraded the lock
		sh.mu.Unlock()
		mMemoHits.Inc()
		return out
	}
	if c, ok := sh.inflight[value]; ok { // a leader is already computing
		sh.mu.Unlock()
		c.wg.Wait()
		mMemoWaits.Inc()
		return c.out
	}
	c := &memoCall{}
	c.wg.Add(1)
	sh.inflight[value] = c
	sh.mu.Unlock()

	mMemoMisses.Inc()
	out = s.computeSimilar(f, value)

	sh.mu.Lock()
	sh.sims[value] = out
	delete(sh.inflight, value)
	sh.mu.Unlock()
	c.out = out
	c.wg.Done()
	return out
}

// Memoised reports whether a similarity list for the value is already
// stored in S, without computing or storing one. The query engine uses it
// to attribute memo hits to the trace span of the lookup.
func (s *Similarity) Memoised(f Field, value string) bool {
	sh := s.shard(f, value)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.sims[value]
	return ok
}

// compareSim is the one similarity-list order: similarity descending,
// value ascending. Values are distinct within a list, so the order is total
// and a sorted list does not depend on the order its entries arrived in.
func compareSim(x, y SimilarValue) int {
	if x.Sim != y.Sim {
		if x.Sim > y.Sim {
			return -1
		}
		return 1
	}
	return strings.Compare(x.Value, y.Value)
}

// candScratch is pooled scratch for a probe: the candidate set of its
// bigram scan and the match tables it scores the candidates against, so a
// probe allocates neither.
type candScratch struct {
	ids   []symbol.ID
	probe simcache.Probe
}

var candPool = sync.Pool{New: func() any { return new(candScratch) }}

// candidates returns, ascending, the distinct symbol ids of the values in
// post sharing at least one of the bigrams. The result aliases the scratch
// and is valid until the scratch goes back to the pool.
func (c *candScratch) candidates(post map[strsim.BigramID]symList, bgs []strsim.BigramID) []symbol.ID {
	ids := c.ids[:0]
	for _, bg := range bgs {
		for it := post[bg].iter(); ; {
			id, ok := it.next()
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
// threshold. It serves query-time misses, values added by a flush, and is
// the reference the all-pairs precompute is tested against. bigramPost is
// immutable after Build, so no lock is held while computing.
//
// The probe's match tables are set once and every candidate is scored
// against them (simcache.Probe). A probe that is already an interned symbol
// (every indexed value, and any query value matching one) takes its tokens
// and bigrams from the cached features. Arbitrary query strings are NEVER
// interned here — an attacker-controlled query stream must not grow the
// symbol table — so unknown probes are set from the raw string, which
// yields identical scores.
func (s *Similarity) computeSimilar(f Field, value string) []SimilarValue {
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
	out := make([]SimilarValue, 0, len(cand))
	for _, id := range cand {
		cf := simcache.Feat(id)
		if sim := sc.probe.Sim(cf); sim >= s.threshold {
			out = append(out, SimilarValue{Value: cf.Str, Sim: sim})
		}
	}
	candPool.Put(sc)
	slices.SortFunc(out, compareSim)
	return out
}

// Size reports the number of memoised similarity lists for a field.
func (s *Similarity) Size(f Field) int {
	n := 0
	for i := range s.shards[f] {
		sh := &s.shards[f][i]
		sh.mu.RLock()
		n += len(sh.sims)
		sh.mu.RUnlock()
	}
	return n
}
