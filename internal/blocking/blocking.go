// Package blocking reduces the ER comparison space. SNAPS uses locality
// sensitive hashing (LSH): each record's name string is shingled into
// character bigrams, a MinHash signature is computed, and the signature is
// split into bands; records whose band hashes collide land in the same
// block and are compared. Pairs of very dissimilar records are unlikely to
// collide in any band, so the quadratic comparison space shrinks to
// near-linear.
//
// A simple Soundex-based blocker is also provided as a deterministic
// cross-check for tests and for data sets too small to warrant LSH.
package blocking

import (
	"sort"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// Candidate is a candidate record pair produced by a blocker.
type Candidate struct {
	A, B model.RecordID
}

// Blocks over the size cap are skipped, never silently: every call adds the
// blocks it dropped and the records in them (a record counts once per
// dropped block it sits in) to these counters.
var (
	mCappedBlocks = obs.Default.Counter("snaps_blocking_capped_blocks_total",
		"Blocks skipped by pair emission because they exceeded MaxBlockSize.")
	mCappedRecords = obs.Default.Counter("snaps_blocking_capped_records_total",
		"Record memberships of the blocks skipped for exceeding MaxBlockSize.")
)

// LSHConfig tunes the MinHash LSH blocker.
type LSHConfig struct {
	// Bands and Rows split the MinHash signature: signature length is
	// Bands*Rows. More bands with fewer rows each admits lower-similarity
	// pairs; the collision probability of a pair with Jaccard similarity s
	// is 1-(1-s^Rows)^Bands.
	Bands, Rows int
	// Seed seeds the per-position hash mixers so runs are reproducible.
	Seed uint64
	// MaxBlockSize caps a block: larger blocks (stop-word-like names) are
	// skipped to avoid quadratic blowup on very frequent values, mirroring
	// standard blocking practice. Zero means no cap.
	MaxBlockSize int
}

// DefaultLSHConfig returns the configuration used by SNAPS: 8 bands of 4
// rows, which admits pairs with bigram Jaccard similarity around 0.35-0.4
// with high probability.
func DefaultLSHConfig() LSHConfig {
	return LSHConfig{Bands: 8, Rows: 4, Seed: 0x5eed, MaxBlockSize: 400}
}

// ScaleLSHConfig returns the blocking profile for the DS-scale bench
// tiers (100k–10M certificates). The parish-scale default admits pairs
// down to bigram Jaccard ~0.35 — affordable at tens of thousands of
// records, but candidate density grows with corpus size (measured: 130
// pairs/record at 53k records, 207 at 266k) and the quadratic tail
// dominates the offline build. Six bands of six rows moves the admission
// threshold to ~0.7 and the tighter block cap bounds the per-record fan-
// out, the same selectivity-for-scale trade the paper makes to run BHIC
// windows (Table 6).
func ScaleLSHConfig() LSHConfig {
	return LSHConfig{Bands: 6, Rows: 6, Seed: 0x5eed, MaxBlockSize: 128}
}

// LSH is a MinHash locality-sensitive-hashing blocker over the
// concatenation of a record's first name and surname.
type LSH struct {
	cfg LSHConfig
	// mixers are per-position multiplicative constants for the signature.
	mixers []uint64
}

// NewLSH returns an LSH blocker with the given configuration.
func NewLSH(cfg LSHConfig) *LSH {
	if cfg.Bands <= 0 || cfg.Rows <= 0 {
		cfg = DefaultLSHConfig()
	}
	n := cfg.Bands * cfg.Rows
	mixers := make([]uint64, n)
	x := cfg.Seed | 1
	for i := range mixers {
		// splitmix64 step to derive independent odd multipliers.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		mixers[i] = (z ^ (z >> 31)) | 1
	}
	return &LSH{cfg: cfg, mixers: mixers}
}

// signature computes the MinHash signature of a record's name bigrams.
func (l *LSH) signature(name string) []uint64 {
	n := len(l.mixers)
	sig := make([]uint64, n)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	if len(name) < 2 {
		// Degenerate names hash as a single token so they still block
		// together rather than being silently dropped.
		h := fnvHash(name)
		for i := range sig {
			sig[i] = h * l.mixers[i]
		}
		return sig
	}
	for i := 0; i+2 <= len(name); i++ {
		h := fnvHash(name[i : i+2])
		for j := range sig {
			v := h * l.mixers[j]
			if v < sig[j] {
				sig[j] = v
			}
		}
	}
	return sig
}

// FNV-1a, inlined: hash/fnv's New64a allocates a hasher per call, and the
// signature loop hashes every bigram of every distinct name. The constants
// and the xor-then-multiply order match hash/fnv exactly (pinned by
// TestFNVHashMatchesStdlib).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// blockKey identifies one band of one signature.
type blockKey struct {
	band int
	hash uint64
}

// Pairs returns the deduplicated candidate pairs among the given records,
// canonical A < B. Records with the same band hash in any band are
// candidates; gender-incompatible pairs are filtered here already because no
// downstream step can ever link them.
//
// Two signature passes run: one over the full name (first name + surname)
// and one over the surname alone. The surname pass catches pairs whose
// first names differ — nicknamed re-recordings of one person, and the
// sibling pairs whose presence in node groups drives the REL technique.
func (l *LSH) Pairs(d *model.Dataset, ids []model.RecordID) []Candidate {
	var out []Candidate
	l.PairsChunked(d, ids, func(chunk []Candidate) {
		out = append(out, chunk...)
	})
	return out
}

// PairsChunked is Pairs with streamed output: candidate pairs are delivered
// in bounded chunks, in exactly the order Pairs would return them. Chunk
// slices are only valid during the emit call and are reused afterwards.
// Streaming bounds the blocking stage's memory to the block map plus one
// wave of shard outputs, instead of the full candidate slice.
func (l *LSH) PairsChunked(d *model.Dataset, ids []model.RecordID, emit func(chunk []Candidate)) {
	// MinHash signatures depend only on the name strings, and Zipf-shaped
	// name distributions make distinct (first, surname) pairs far rarer
	// than records, so signatures are keyed by the packed symbol pair and
	// computed once per distinct name (and once per distinct surname for
	// the second pass) rather than once per record.
	pairIdx := map[uint64]int32{}
	recPair := make([]int32, len(ids))
	var pairSyms [][2]model.Sym
	surIdx := map[model.Sym]int32{}
	recSur := make([]int32, len(ids))
	var surSyms []model.Sym
	for i, id := range ids {
		rec := d.Record(id)
		pk := uint64(rec.First)<<32 | uint64(rec.Sur)
		pi, ok := pairIdx[pk]
		if !ok {
			pi = int32(len(pairSyms))
			pairIdx[pk] = pi
			pairSyms = append(pairSyms, [2]model.Sym{rec.First, rec.Sur})
		}
		recPair[i] = pi
		recSur[i] = -1
		if rec.Sur != 0 {
			si, ok := surIdx[rec.Sur]
			if !ok {
				si = int32(len(surSyms))
				surIdx[rec.Sur] = si
				surSyms = append(surSyms, rec.Sur)
			}
			recSur[i] = si
		}
	}
	fullSigs := make([][]uint64, len(pairSyms))
	par.Range(len(pairSyms), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fullSigs[i] = l.bandHashes(nameKeySyms(pairSyms[i][0], pairSyms[i][1]))
		}
	})
	surSigs := make([][]uint64, len(surSyms))
	par.Range(len(surSyms), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			surSigs[i] = l.bandHashes(symbol.Str(surSyms[i]))
		}
	})
	// Block contents are collected serially in record order, exactly as
	// the per-record hashing produced them.
	blocks := make(map[blockKey][]model.RecordID)
	for i, id := range ids {
		for b, h := range fullSigs[recPair[i]] {
			key := blockKey{band: b, hash: h}
			blocks[key] = append(blocks[key], id)
		}
		if si := recSur[i]; si >= 0 {
			for b, h := range surSigs[si] {
				key := blockKey{band: l.cfg.Bands + b, hash: h}
				blocks[key] = append(blocks[key], id)
			}
		}
	}
	emitPairsChunked(d, blocks, l.cfg.MaxBlockSize, emit)
}

// bandHashes computes the per-band hashes of a name's MinHash signature,
// FNV-1a over each band's rows in little-endian byte order (byte-for-byte
// the hash/fnv writer it replaces).
func (l *LSH) bandHashes(name string) []uint64 {
	sig := l.signature(name)
	out := make([]uint64, l.cfg.Bands)
	for b := 0; b < l.cfg.Bands; b++ {
		h := uint64(fnvOffset64)
		for r := 0; r < l.cfg.Rows; r++ {
			v := sig[b*l.cfg.Rows+r]
			for k := 0; k < 8; k++ {
				h ^= v >> (8 * k) & 0xff
				h *= fnvPrime64
			}
		}
		out[b] = h
	}
	return out
}

// nameKeySyms is the blocking string of a (first name, surname) pair,
// built once per distinct pair instead of once per record.
func nameKeySyms(first, sur model.Sym) string {
	return symbol.Str(first) + "|" + symbol.Str(sur)
}

// pairChunkTarget bounds the pre-dedup pair count of one emitted span; the
// streamed consumer sees chunks of at most roughly this many candidates.
const pairChunkTarget = 1 << 16

// mix64 is the splitmix64 finaliser used to spread pair keys over the
// open-addressed dedup table.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairSet is an open-addressed set of pair keys: the global first-wins
// dedup structure of the chunked emitter. Pair keys are canonical A<B, so
// B is nonzero and zero serves as the empty-slot sentinel. At DS scale it
// replaces a map[PairKey]bool holding tens of millions of entries with a
// flat uint64 table at under half the footprint and no per-entry overhead.
type pairSet struct {
	keys []uint64
	n    int
}

func newPairSet(hint int) *pairSet {
	size := 1024
	for size*7 < hint*10 {
		size <<= 1
	}
	return &pairSet{keys: make([]uint64, size)}
}

// add inserts k and reports whether it was absent.
func (s *pairSet) add(k uint64) bool {
	if 10*(s.n+1) >= 7*len(s.keys) {
		s.grow()
	}
	mask := uint64(len(s.keys) - 1)
	for i := mix64(k) & mask; ; i = (i + 1) & mask {
		switch s.keys[i] {
		case 0:
			s.keys[i] = k
			s.n++
			return true
		case k:
			return false
		}
	}
}

func (s *pairSet) grow() {
	old := s.keys
	s.keys = make([]uint64, 2*len(old))
	s.n = 0
	for _, k := range old {
		if k != 0 {
			s.add(k)
		}
	}
}

// reset empties the set, reallocating only when the existing table cannot
// hold hint entries below the load factor. Clearing in place (a memclr)
// lets one table serve every span a wave slot processes — at DS scale the
// per-span dedup previously churned gigabytes of short-lived maps, which
// set the GC pacing (and so the peak heap) of the whole offline build.
func (s *pairSet) reset(hint int) {
	size := 1024
	for size*7 < hint*10 {
		size <<= 1
	}
	if size > len(s.keys) {
		s.keys = make([]uint64, size)
	} else {
		clear(s.keys)
	}
	s.n = 0
}

// emitScratch is the reusable per-wave-slot state of emitPairsChunked: the
// span-local dedup table and the span output buffer. Both survive across
// waves; the output buffer may be handed to emit because the chunked
// contract says chunks are only read during the emit call.
type emitScratch struct {
	seen pairSet
	out  []Candidate
}

// emitPairs is the materialising adapter over emitPairsChunked, retained
// for the Soundex blocker and tests.
func emitPairs(d *model.Dataset, blocks map[blockKey][]model.RecordID, maxBlock int) []Candidate {
	var out []Candidate
	emitPairsChunked(d, blocks, maxBlock, func(chunk []Candidate) {
		out = append(out, chunk...)
	})
	return out
}

// emitPairsChunked deduplicates pair emission across blocks and applies the
// gender-compatibility filter, delivering the candidates in bounded chunks.
//
// The sorted block keys are split into contiguous spans of roughly
// pairChunkTarget pairs each; spans are emitted in waves of GOMAXPROCS with
// a local dedup map per span, then merged serially in span order under the
// global first-wins pairSet and handed to emit. Because spans are
// contiguous runs of the serial iteration order, the merged stream
// reproduces the serial first-occurrence order byte for byte regardless of
// span size or GOMAXPROCS; the gender and
// certificate filters are pure pair predicates, so applying them before or
// after deduplication yields the same candidate sequence.
func emitPairsChunked(d *model.Dataset, blocks map[blockKey][]model.RecordID, maxBlock int, emit func(chunk []Candidate)) {
	st := obs.StartStage("blocking.emit_pairs")
	defer st.Stop()

	// Deterministic iteration: sort keys, dropping capped blocks up front
	// and summing emittable pair counts for span sizing.
	keys := make([]blockKey, 0, len(blocks))
	cappedBlocks, cappedRecords := 0, 0
	for k, blk := range blocks {
		if maxBlock > 0 && len(blk) > maxBlock {
			cappedBlocks++
			cappedRecords += len(blk)
			continue
		}
		keys = append(keys, k)
	}
	mCappedBlocks.Add(int64(cappedBlocks))
	mCappedRecords.Add(int64(cappedRecords))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].band != keys[j].band {
			return keys[i].band < keys[j].band
		}
		return keys[i].hash < keys[j].hash
	})
	total := 0
	for _, k := range keys {
		n := len(blocks[k])
		total += n * (n - 1) / 2
	}
	if total == 0 {
		return
	}

	// Contiguous spans of roughly pairChunkTarget pre-dedup pairs.
	type span struct{ lo, hi, pairs int }
	var spans []span
	cur := span{}
	for i, k := range keys {
		n := len(blocks[k])
		cur.pairs += n * (n - 1) / 2
		if cur.pairs >= pairChunkTarget || i == len(keys)-1 {
			cur.hi = i + 1
			spans = append(spans, cur)
			cur = span{lo: i + 1}
		}
	}
	if len(spans) == 1 {
		// One span needs no cross-span dedup: its local table already
		// produced the serial first-occurrence order.
		var sc emitScratch
		if out := emitShard(d, blocks, keys, total, &sc); len(out) > 0 {
			emit(out)
		}
		return
	}

	// One scratch per wave slot, reused for every wave: slot s of each wave
	// runs on one goroutine at a time and waves are serial, so reuse is
	// race-free, and the emit contract (chunks are only read during the
	// call) makes recycling the output buffers legal.
	seen := newPairSet(total/4 + 16)
	workers := par.Procs(len(spans))
	scratch := make([]emitScratch, workers)
	outs := make([][]Candidate, len(spans))
	for wave := 0; wave < len(spans); wave += workers {
		end := wave + workers
		if end > len(spans) {
			end = len(spans)
		}
		par.Range(end-wave, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				sp := spans[wave+s]
				outs[wave+s] = emitShard(d, blocks, keys[sp.lo:sp.hi], sp.pairs, &scratch[s])
			}
		})
		// Ordered merge with global first-wins dedup, then hand the
		// surviving chunk to the consumer. The span buffer stays owned by
		// its scratch slot and is overwritten next wave.
		for s := wave; s < end; s++ {
			o := outs[s]
			outs[s] = nil
			w := 0
			for _, c := range o {
				if seen.add(uint64(model.MakePairKey(c.A, c.B))) {
					o[w] = c
					w++
				}
			}
			if w > 0 {
				emit(o[:w])
			}
		}
	}
}

// emitShard emits the deduplicated, filtered pairs of one contiguous run of
// sorted block keys into sc, whose dedup table and output buffer are reused
// across spans. pairHint is the worst-case pair count (every block visit
// distinct). Measured distinct-pair fractions of worst case run 0.18 on the
// parish-scale IOS profile and 0.41 on the DS-scale substrate
// (TestPairHintSizingAudit) — the denser the blocks, the more of the
// recurrence is same-pair-new-band and the higher the distinct fraction.
// Resetting to pairHint/4 splits that range: at most one table growth at
// the highest measured density, no over-allocation at the lowest — and
// after the first wave the table has reached working size, so steady state
// allocates nothing at all.
func emitShard(d *model.Dataset, blocks map[blockKey][]model.RecordID, keys []blockKey, pairHint int, sc *emitScratch) []Candidate {
	sc.seen.reset(pairHint/4 + 16)
	out := sc.out[:0]
	for _, k := range keys {
		blk := blocks[k]
		for i := 0; i < len(blk); i++ {
			for j := i + 1; j < len(blk); j++ {
				a, b := blk[i], blk[j]
				if b < a {
					a, b = b, a
				}
				if a == b {
					continue
				}
				if !sc.seen.add(uint64(model.MakePairKey(a, b))) {
					continue
				}
				ra, rb := d.Record(a), d.Record(b)
				if !GenderCompatible(ra, rb) {
					continue
				}
				if ra.Cert == rb.Cert {
					continue // two roles on one certificate are distinct people
				}
				out = append(out, Candidate{A: a, B: b})
			}
		}
	}
	sc.out = out
	return out
}

// GenderCompatible reports whether two records could refer to the same
// person as far as recorded or role-implied gender goes.
func GenderCompatible(a, b *model.Record) bool {
	ga, gb := effectiveGender(a), effectiveGender(b)
	if ga == model.GenderUnknown || gb == model.GenderUnknown {
		return true
	}
	return ga == gb
}

func effectiveGender(r *model.Record) model.Gender {
	if r.Gender != model.GenderUnknown {
		return r.Gender
	}
	return model.RoleGender(r.Role)
}

// Soundex blocks records by the Soundex codes of their first name and
// surname. It is exact for spelling variants that preserve the phonetic
// skeleton and serves as a baseline blocker and a test oracle.
type Soundex struct {
	// MaxBlockSize caps block sizes as in LSH. Zero means no cap.
	MaxBlockSize int
	// Encode maps a name to its phonetic code; tests may substitute a stub.
	Encode func(string) string
}

// Pairs returns the deduplicated candidate pairs among the given records,
// canonical A < B.
func (s *Soundex) Pairs(d *model.Dataset, ids []model.RecordID) []Candidate {
	encode := s.Encode
	if encode == nil {
		// Default to the per-symbol cached code: record values are
		// interned, so the phonetic encoding is a slab lookup.
		encode = func(v string) string {
			if id, ok := symbol.Lookup(v); ok {
				return simcache.Soundex(id)
			}
			return strsim.Soundex(v)
		}
	}
	blocks := make(map[blockKey][]model.RecordID)
	intern := map[string]uint64{}
	keyID := func(key string) uint64 {
		if v, ok := intern[key]; ok {
			return v
		}
		v := fnvHash(key)
		intern[key] = v
		return v
	}
	for _, id := range ids {
		rec := d.Record(id)
		k1 := encode(rec.FirstName()) + "/" + encode(rec.Surname())
		blocks[blockKey{band: 0, hash: keyID(k1)}] = append(blocks[blockKey{band: 0, hash: keyID(k1)}], id)
		// Second pass on surname alone tolerates first-name nicknames.
		k2 := encode(rec.Surname())
		blocks[blockKey{band: 1, hash: keyID(k2)}] = append(blocks[blockKey{band: 1, hash: keyID(k2)}], id)
	}
	return emitPairs(d, blocks, s.MaxBlockSize)
}
