// The all-pairs similarity precompute of Build.
//
// S holds, for every indexed name, the indexed names at or above the
// threshold among those sharing a bigram with it. Name similarity is
// symmetric, so the pass scores each unordered bigram-sharing pair once and
// writes the score into both values' lists, instead of probing from every
// value and scoring each pair from both sides.
package index

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/symbol"
)

// simPair is one scored pair that reached the threshold, i < j.
type simPair struct {
	i, j int32
	sim  float64
}

// pairChunk is how many values a worker claims at a time. Value i is
// scored against the later values only, so early values cost the most;
// chunks far smaller than n/workers keep the workers level.
const pairChunk = 16

// pairBlock is how many kept pairs a worker buffers per allocation (512 KB).
// The pairs of a build run to tens of megabytes; one slice grown by doubling
// spends a tenth of the pass copying itself.
const pairBlock = 1 << 15

// precompute computes the similarity list of every value the field indexes
// and stores them as the field's block, row r the list of rank r: exactly
// the list computeSimilar returns for each, entry for entry and bit for
// bit, whatever GOMAXPROCS is. It reads the field's rank order and bigram
// postings, which must already be those of its vocabulary.
func (s *Similarity) precompute(f Field) {
	// A value's rank (its place in s.ranked[f], value order) is its dense
	// local id: syms, feats and the bigram postings are keyed by it, so the
	// pair loop touches flat slices only.
	syms, post := s.ranked[f], s.bigramPost[f]
	n := len(syms)
	feats := make([]*simcache.Features, n)
	for i, id := range syms {
		feats[i] = simcache.Feat(id)
	}
	score := obs.StartStage("index_build_sims_score")
	chunks := (n + pairChunk - 1) / pairChunk
	blocks := make([][][]simPair, par.Procs(chunks))
	calls := make([]int, len(blocks))
	par.Pull(chunks, func(w int, next func() int) {
		// seen[j] == i+1 marks j as already scored against i: each i
		// belongs to one worker, so its number is the epoch and the
		// marks never need clearing.
		seen := make([]int32, n)
		// Value i's match tables are built once and every later value
		// sharing a bigram is scored against them.
		var probe simcache.Probe
		// The first block grows from nothing: small shards never fill one.
		var buf []simPair
		scored := 0
		for c := next(); c < chunks; c = next() {
			for i := c * pairChunk; i < min((c+1)*pairChunk, n); i++ {
				fi, epoch := feats[i], int32(i)+1
				probe.Set(fi)
				for _, bg := range fi.Bigrams {
					list := post[bg]
					at, _ := slices.BinarySearch(list, uint32(i))
					for _, j := range list[at+1:] {
						if seen[j] == epoch {
							continue
						}
						seen[j] = epoch
						scored++
						if sim := probe.Sim(feats[j]); sim >= s.threshold {
							if len(buf) == pairBlock {
								blocks[w] = append(blocks[w], buf)
								buf = make([]simPair, 0, pairBlock)
							}
							buf = append(buf, simPair{int32(i), int32(j), sim})
						}
					}
				}
			}
		}
		blocks[w], calls[w] = append(blocks[w], buf), scored
	})
	bufs := slices.Concat(blocks...)
	score.Stop()
	defer obs.StartStage("index_build_sims_order").Stop()

	// Count, lay the rows out at their exact sizes, scatter, order. A value
	// with a bigram is its own candidate and scores 1 without a kernel call;
	// a one-letter value has no candidates at all and gets an empty row.
	hasSelf := func(i int) bool { return s.threshold <= 1 && len(feats[i].Bigrams) > 0 }
	b := &simBlock{offsets: make([]uint32, n+1)}
	for i := range n {
		if hasSelf(i) {
			b.offsets[i+1] = 1
		}
	}
	scored, kept := 0, 0
	for _, c := range calls {
		scored += c
	}
	for _, buf := range bufs {
		kept += len(buf)
		for _, p := range buf {
			b.offsets[p.i+1]++
			b.offsets[p.j+1]++
		}
	}
	mPairsScored.Add(int64(scored))
	mPairsKept.Add(int64(kept))
	for i := range n {
		b.offsets[i+1] += b.offsets[i]
	}
	b.ids, b.codes = make([]symbol.ID, b.offsets[n]), make([]uint16, b.offsets[n])

	// A list's order is similarity descending, value ascending, and a
	// value's rank in syms is its place in value order, so the order
	// lives in integers: one uint64 per entry, the inverted bits of the
	// similarity (non-negative floats order as their bits) with the low
	// bits.Len(n) bits replaced by the rank. Sorting the keys is exact on
	// value order and drops only those last bits of the similarity, which
	// the write-back below repairs.
	rankMask := uint64(1)<<bits.Len(uint(n)) - 1

	// Each range of rows is filled, ordered and coded by one goroutine,
	// which reads every pair and keeps the sides landing in its range: a
	// sequential read per goroutine buys scattered writes nobody shares.
	// The fill order follows the scheduling; the order under a total
	// comparator does not. The range's rows start a page of their own.
	var mu sync.Mutex
	var pages [][]simPage
	par.Range(n, func(lo, hi int) {
		// Until it is ordered a row holds ranks where its ids will be, in
		// fill order, and the inverted bits of their similarities in keys,
		// the range's scratch: the block keeps only their codes.
		base := b.offsets[lo]
		keys := make([]uint64, b.offsets[hi]-base)
		filled := make([]uint32, hi-lo)
		add := func(i, j int32, sim float64) {
			if int(i) >= lo && int(i) < hi {
				at := b.offsets[i] + filled[int(i)-lo]
				filled[int(i)-lo]++
				b.ids[at], keys[at-base] = symbol.ID(j), ^math.Float64bits(sim)
			}
		}
		for i := lo; i < hi; i++ {
			if hasSelf(i) {
				add(int32(i), int32(i), 1)
			}
		}
		for _, buf := range bufs {
			for _, p := range buf {
				add(p.i, p.j, p.sim)
				add(p.j, p.i, p.sim)
			}
		}
		// A row's keys are ordered in place; simOf carries its exact
		// similarities across the sort, by rank. An entry that beats its
		// predecessors in the bits the key dropped moves up past them as it
		// lands; equal ones keep their value order. Each entry is coded as it
		// lands: one equal to its predecessor takes its code, as equal
		// similarities land side by side.
		var sims []float64
		simOf := make([]float64, n)
		c := newCoder()
		for i := lo; i < hi; i++ {
			from, to := b.offsets[i], b.offsets[i+1]
			ids, codes, keys := b.ids[from:to], b.codes[from:to], keys[from-base:to-base]
			for at, rank := range ids {
				simOf[rank] = math.Float64frombits(^keys[at])
				keys[at] = keys[at]&^rankMask | uint64(rank)
			}
			slices.Sort(keys)
			c.row(uint32(i), len(ids))
			sims = slices.Grow(sims[:0], len(ids))[:len(ids)]
			for at, k := range keys {
				sim := simOf[k&rankMask]
				ids[at], sims[at] = syms[k&rankMask], sim
				if at > 0 && math.Float64bits(sim) == math.Float64bits(sims[at-1]) {
					codes[at] = codes[at-1]
				} else {
					codes[at] = c.code(sim)
				}
				for j := at; j > 0 && sims[j-1] < sims[j]; j-- {
					ids[j-1], ids[j] = ids[j], ids[j-1]
					sims[j-1], sims[j] = sims[j], sims[j-1]
					codes[j-1], codes[j] = codes[j], codes[j-1]
				}
			}
		}
		mu.Lock()
		pages = append(pages, c.pages)
		mu.Unlock()
	})
	slices.SortFunc(pages, func(x, y []simPage) int { return cmp.Compare(x[0].first, y[0].first) })
	b.pages = slices.Concat(pages...)
	s.blocks[f] = b
}
