// Package blocking reduces the ER comparison space. SNAPS uses locality
// sensitive hashing (LSH): each record's name string is shingled into
// character bigrams, a MinHash signature is computed, and the signature is
// split into bands; records whose band hashes collide land in the same
// block and are compared. Pairs of very dissimilar records are unlikely to
// collide in any band, so the quadratic comparison space shrinks to
// near-linear.
package blocking

import (
	"math/bits"
	"slices"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/symbol"
)

// Candidate is a candidate record pair produced by a blocker.
type Candidate struct {
	A, B model.RecordID
}

// Blocks over the size cap are skipped, never silently: every call adds the
// blocks it dropped and the records in them (a record counts once per
// dropped block it sits in) to these counters. A call from a first new
// position (an ingest flush) counts only the blocks holding a new record.
var (
	mCappedBlocks = obs.Default.Counter("snaps_blocking_capped_blocks_total",
		"Blocks skipped by pair emission because they exceeded MaxBlockSize; an ingest flush counts only the blocks holding one of its new records.")
	mCappedRecords = obs.Default.Counter("snaps_blocking_capped_records_total",
		"Record memberships of the blocks skipped for exceeding MaxBlockSize; an ingest flush counts only the blocks holding one of its new records.")
)

// LSHConfig tunes the MinHash LSH blocker.
type LSHConfig struct {
	// Bands and Rows split the MinHash signature: signature length is
	// Bands*Rows. More bands with fewer rows each admits lower-similarity
	// pairs; the collision probability of a pair with Jaccard similarity s
	// is 1-(1-s^Rows)^Bands.
	Bands, Rows int
	// MaxBlockSize caps a block: larger blocks (stop-word-like names) are
	// skipped to avoid quadratic blowup on very frequent values, mirroring
	// standard blocking practice. Zero means no cap.
	MaxBlockSize int
}

// DefaultLSHConfig returns the configuration used by SNAPS: 8 bands of 4
// rows, which admits pairs with bigram Jaccard similarity around 0.35-0.4
// with high probability.
func DefaultLSHConfig() LSHConfig {
	return LSHConfig{Bands: 8, Rows: 4, MaxBlockSize: 400}
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
	return LSHConfig{Bands: 6, Rows: 6, MaxBlockSize: 128}
}

// LSH is a MinHash locality-sensitive-hashing blocker over the
// concatenation of a record's first name and surname.
type LSH struct {
	cfg LSHConfig
	// mixers are per-position multiplicative constants for the signature.
	mixers []uint64
}

// maxBands is the largest LSHConfig.Bands NewLSH accepts.
const maxBands = 32

// lshSeed seeds the per-position hash mixers, so runs are reproducible.
const lshSeed = 0x5eed

// NewLSH returns an LSH blocker with the given configuration; one without
// positive Bands and Rows, or with more than 32 Bands, is replaced by
// DefaultLSHConfig.
func NewLSH(cfg LSHConfig) *LSH {
	// The two signature passes number 2·Bands bands, and the emitter keeps
	// one bit per band and record in a uint64.
	if cfg.Bands <= 0 || cfg.Rows <= 0 || cfg.Bands > maxBands {
		cfg = DefaultLSHConfig()
	}
	n := cfg.Bands * cfg.Rows
	mixers := make([]uint64, n)
	x := uint64(lshSeed | 1)
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

// signature fills sig (len(l.mixers) long) with the MinHash signature of a
// record's name bigrams.
func (l *LSH) signature(name string, sig []uint64) {
	if len(name) < 2 {
		// Degenerate names hash as a single token so they still block
		// together rather than being silently dropped.
		h := fnvHash(name)
		for i := range sig {
			sig[i] = h * l.mixers[i]
		}
		return
	}
	for i := range sig {
		sig[i] = ^uint64(0)
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
// Streaming bounds the blocking stage's memory to the sorted blocks plus one
// wave of span outputs, instead of the full candidate slice. It is
// PairsChunkedFrom with firstNew 0.
func (l *LSH) PairsChunked(d *model.Dataset, ids []model.RecordID, emit func(chunk []Candidate)) {
	l.PairsChunkedFrom(d, ids, 0, emit)
}

// PairsChunkedFrom streams the pairs of PairsChunked that touch a position
// of ids at or after firstNew, in its order (with ids in record order: its
// pairs whose B is at or after firstNew). Only the blocks holding such a
// position are built, walked and counted if capped.
func (l *LSH) PairsChunkedFrom(d *model.Dataset, ids []model.RecordID, firstNew int, emit func(chunk []Candidate)) {
	emitPairs(d, ids, l.tables(d, ids), l.cfg.MaxBlockSize, firstNew, emit)
}

// tables computes the two signature passes over ids: full name, then
// surname alone.
func (l *LSH) tables(d *model.Dataset, ids []model.RecordID) []sigTable {
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
	bands := l.cfg.Bands
	pass := func(row []int32, keys int, name func(key int) string) sigTable {
		t := sigTable{width: bands, row: row, sigs: make([]uint64, keys*bands)}
		par.Range(keys, func(lo, hi int) {
			sig := make([]uint64, len(l.mixers))
			for i := lo; i < hi; i++ {
				l.bandHashes(name(i), sig, t.sigs[i*bands:(i+1)*bands])
			}
		})
		return t
	}
	return []sigTable{
		pass(recPair, len(pairSyms), func(i int) string { return nameKeySyms(pairSyms[i][0], pairSyms[i][1]) }),
		pass(recSur, len(surSyms), func(i int) string { return symbol.Str(surSyms[i]) }),
	}
}

// bandHashes writes the per-band hashes of a name's MinHash signature to
// out, FNV-1a over each band's rows in little-endian byte order (byte-for-
// byte the hash/fnv writer it replaces). sig is signature scratch.
func (l *LSH) bandHashes(name string, sig, out []uint64) {
	l.signature(name, sig)
	for b := range out {
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
}

// nameKeySyms is the blocking string of a (first name, surname) pair,
// built once per distinct pair instead of once per record.
func nameKeySyms(first, sur model.Sym) string {
	return symbol.Str(first) + "|" + symbol.Str(sur)
}

// pairChunkTarget bounds the pre-dedup pair count of one emitted span; the
// streamed consumer sees chunks of at most roughly this many candidates.
const pairChunkTarget = 1 << 16

// sigTable is one signature pass of a blocker: the band hashes of every
// distinct key of the pass, and the key each position of ids carries. A
// blocker's bands are numbered pass by pass, and a block is the set of
// positions with one hash in one band.
type sigTable struct {
	width int      // bands in this pass
	sigs  []uint64 // key r's band hashes are sigs[r*width : (r+1)*width]
	row   []int32  // per position of ids: its key, -1 when it has none
	base  int      // number of this pass's first band, set by emitPairs
}

// bandBlocks holds the blocks of one band that can emit a pair — two or
// more members, not over the cap — in ascending hash order, each block's
// members in ascending position order.
type bandBlocks struct {
	members []int32 // positions of ids, block after block
	ends    []int32 // block r is members[ends[r-1]:ends[r]]
	cuts    []int32 // span boundaries, as block numbers; the last is len(ends)
	// capped lists the positions of the blocks dropped for exceeding the
	// cap, cappedBlocks their number.
	capped       []int32
	cappedBlocks int
}

// span is a run of consecutive blocks of one band, about pairChunkTarget
// pairs before deduplication: the unit of parallel pair emission.
type span struct{ band, lo, hi int }

// emitter is the read-only state the spans of one emitPairs call share.
type emitter struct {
	d      *model.Dataset
	ids    []model.RecordID
	tables []sigTable
	bands  []bandBlocks
	// firstNew is the first position a pair must reach: a pair is emitted
	// only when its later position is at or after it.
	firstNew int32
	// live has bit k set for position p when p sits in a block of band k
	// that was not dropped for its size.
	live []uint64
}

// emitPairs turns signature tables into the candidate stream: every pair of
// distinct records sharing a block of at most maxBlock members (0: any
// size), once, canonical A < B, gender- and certificate-filtered, in the
// order of the pair's first block under (band, hash) order and, within a
// block, of the members' positions in ids. Only the pairs whose later
// position q is at or after firstNew are emitted (0: every pair). Such a
// pair can only share blocks that hold q, so a band keeps just the entries
// whose hash a new position carries: a kept block keeps all its members,
// so the cap decides as over the whole band, and the dedup below compares
// p and q only on blocks that hold q, which are all built.
//
// Blocks are built by sorting each band's (hash, position) entries, bands
// in parallel. Pairs are emitted span by span, a wave of GOMAXPROCS spans
// at a time, and handed to emit in span order. No span consults another's
// output: a pair met in band k has been emitted before exactly when the two
// records share a block of a band below k that the cap did not drop — each
// record sits in one block per band, so that is the pair's only possible
// earlier occurrence — and a few hash compares against the signature tables
// answer that. The candidate sequence is therefore independent of span size
// and GOMAXPROCS. The gender and certificate filters are pure pair
// predicates, so applying them after deduplication changes nothing.
func emitPairs(d *model.Dataset, ids []model.RecordID, tables []sigTable, maxBlock, firstNew int, emit func(chunk []Candidate)) {
	st := obs.StartStage("blocking.emit_pairs")
	defer st.Stop()

	// A record listed twice in ids sits twice in each of its blocks: it
	// counts twice against the cap, but pairs only through its first
	// position.
	var repeat []bool
	listed := make([]bool, len(d.Records))
	for p, id := range ids {
		if listed[id] {
			if repeat == nil {
				repeat = make([]bool, len(ids))
			}
			repeat[p] = true
		}
		listed[id] = true
	}

	e := &emitter{d: d, ids: ids, tables: slices.Clone(tables), firstNew: int32(firstNew), live: make([]uint64, len(ids))}
	nbands := 0
	for ti := range e.tables {
		t := &e.tables[ti]
		t.base = nbands
		nbands += t.width
		bits := (uint64(1)<<t.width - 1) << t.base
		for p, r := range t.row {
			if r >= 0 {
				e.live[p] |= bits
			}
		}
	}
	e.bands = make([]bandBlocks, nbands)
	par.Pull(nbands, func(_ int, next func() int) {
		var scratch [2][]bandEntry
		for b := next(); b < nbands; b = next() {
			e.buildBand(b, maxBlock, repeat, &scratch)
		}
	})

	var spans []span
	for b := range e.bands {
		bb := &e.bands[b]
		for _, p := range bb.capped {
			e.live[p] &^= 1 << b
		}
		mCappedBlocks.Add(int64(bb.cappedBlocks))
		mCappedRecords.Add(int64(len(bb.capped)))
		bb.capped = nil
		lo := 0
		for _, hi := range bb.cuts {
			spans = append(spans, span{band: b, lo: lo, hi: int(hi)})
			lo = int(hi)
		}
	}

	// Span buffers are reused wave after wave: the emit contract says a
	// chunk is only read during the call.
	outs := make([][]Candidate, par.Procs(len(spans)))
	for wave := 0; wave < len(spans); wave += len(outs) {
		n := min(len(outs), len(spans)-wave)
		par.Range(n, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				outs[s] = e.emitSpan(spans[wave+s], outs[s][:0])
			}
		})
		for _, out := range outs[:n] {
			if len(out) > 0 {
				emit(out)
			}
		}
	}
}

// bandEntry is one record's membership of one band.
type bandEntry struct {
	hash uint64
	pos  int32
}

// buildBand sorts band b's entries into blocks and keeps the ones that can
// emit, cutting them into spans as it goes. scratch is reused across the
// bands one worker builds.
func (e *emitter) buildBand(b, maxBlock int, repeat []bool, scratch *[2][]bandEntry) {
	entries := e.bandEntries(b, scratch)
	bb := &e.bands[b]
	pending := 0 // pairs emittable from the blocks since the last cut
	for lo := 0; lo < len(entries); {
		hi := lo + 1
		for hi < len(entries) && entries[hi].hash == entries[lo].hash {
			hi++
		}
		blk := entries[lo:hi]
		lo = hi
		if len(blk) < 2 {
			continue
		}
		if maxBlock > 0 && len(blk) > maxBlock {
			bb.cappedBlocks++
			for _, en := range blk {
				bb.capped = append(bb.capped, en.pos)
			}
			continue
		}
		start, old := len(bb.members), 0
		for _, en := range blk {
			if repeat == nil || !repeat[en.pos] {
				bb.members = append(bb.members, en.pos)
				if en.pos < e.firstNew {
					old++
				}
			}
		}
		n := len(bb.members) - start
		if n < 2 {
			bb.members = bb.members[:start]
			continue
		}
		bb.ends = append(bb.ends, int32(len(bb.members)))
		if pending += n*(n-1)/2 - old*(old-1)/2; pending >= pairChunkTarget {
			bb.cuts = append(bb.cuts, int32(len(bb.ends)))
			pending = 0
		}
	}
	if pending > 0 {
		bb.cuts = append(bb.cuts, int32(len(bb.ends)))
	}
}

// bandEntries returns band b's entries in (hash, position) order: every
// position with a key in b's pass, or with firstNew > 0 only those whose
// hash a new position carries. The result lives in one of the two scratch
// buffers until the next call.
func (e *emitter) bandEntries(b int, scratch *[2][]bandEntry) []bandEntry {
	var t *sigTable
	for ti := range e.tables {
		if b >= e.tables[ti].base {
			t = &e.tables[ti]
		}
	}
	off := b - t.base
	var fresh map[uint64]bool // the hashes new positions carry; nil: keep all
	if e.firstNew > 0 {
		fresh = map[uint64]bool{}
		for _, r := range t.row[min(int(e.firstNew), len(t.row)):] {
			if r >= 0 {
				fresh[t.sigs[int(r)*t.width+off]] = true
			}
		}
	}
	entries := scratch[0][:0]
	for p, r := range t.row {
		if r < 0 {
			continue
		}
		if h := t.sigs[int(r)*t.width+off]; fresh == nil || fresh[h] {
			entries = append(entries, bandEntry{hash: h, pos: int32(p)})
		}
	}
	// Entries were appended in position order, so the stable sort on the
	// hash alone orders them by (hash, position).
	scratch[0], scratch[1] = sortByHash(entries, scratch[1])
	return scratch[0]
}

// sortByHash sorts entries by hash, stably: an LSD radix sort on 8-bit
// digits that ping-pongs between entries and tmp, skipping the digits all
// entries share. It returns the sorted slice and the other buffer, either
// of which may be the one passed in as entries.
func sortByHash(entries, tmp []bandEntry) (sorted, scratch []bandEntry) {
	var counts [8][256]int32
	for _, en := range entries {
		for d := range counts {
			counts[d][byte(en.hash>>(8*d))]++
		}
	}
	tmp = slices.Grow(tmp[:0], len(entries))[:len(entries)]
	for d := range counts {
		c := &counts[d]
		if len(entries) == 0 || int(c[byte(entries[0].hash>>(8*d))]) == len(entries) {
			continue
		}
		var sum int32
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for _, en := range entries {
			k := byte(en.hash >> (8 * d))
			tmp[c[k]] = en
			c[k]++
		}
		entries, tmp = tmp, entries
	}
	return entries, tmp
}

// emitSpan appends the new, filtered pairs of one span to out.
func (e *emitter) emitSpan(sp span, out []Candidate) []Candidate {
	bb := &e.bands[sp.band]
	below := uint64(1)<<sp.band - 1
	lo := int32(0)
	if sp.lo > 0 {
		lo = bb.ends[sp.lo-1]
	}
	for _, hi := range bb.ends[sp.lo:sp.hi] {
		blk := bb.members[lo:hi]
		lo = hi
		// Members are in position order: the pairs to emit are those whose
		// later member is at or after the first new one.
		fresh := 0
		for fresh < len(blk) && blk[fresh] < e.firstNew {
			fresh++
		}
		for i, p := range blk {
			livep := e.live[p] & below
			idp := e.ids[p]
			rp := e.d.Record(idp)
			for _, q := range blk[max(i+1, fresh):] {
				if m := livep & e.live[q]; m != 0 && e.sharedBlock(p, q, m) {
					continue
				}
				idq := e.ids[q]
				rq := e.d.Record(idq)
				if !model.GenderCompatible(rp, rq) {
					continue
				}
				if rp.Cert == rq.Cert {
					continue // two roles on one certificate are distinct people
				}
				out = append(out, Candidate{A: min(idp, idq), B: max(idp, idq)})
			}
		}
	}
	return out
}

// sharedBlock reports whether positions p and q agree on the hash of one of
// the bands in m, the bands that are live for both.
func (e *emitter) sharedBlock(p, q int32, m uint64) bool {
	for ti := range e.tables {
		t := &e.tables[ti]
		mt := m >> t.base & (1<<t.width - 1)
		if mt == 0 {
			continue
		}
		rp, rq := t.row[p], t.row[q]
		if rp == rq {
			return true
		}
		sp, sq := t.sigs[int(rp)*t.width:], t.sigs[int(rq)*t.width:]
		for ; mt != 0; mt &= mt - 1 {
			if o := bits.TrailingZeros64(mt); sp[o] == sq[o] {
				return true
			}
		}
	}
	return false
}
