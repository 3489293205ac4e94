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

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
)

// valueSet is one field's indexed values in sorted order. A value's rank in
// vals is its dense local id: feats and the bigram postings are keyed by
// it, so the pair loop touches flat slices only.
type valueSet struct {
	vals  []string
	feats []*simcache.Features
	// post[bigram] lists, ascending, the local ids of the values
	// containing the bigram.
	post map[strsim.BigramID][]int32
}

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

// precompute computes and stores the similarity list of every value in vs:
// exactly the list computeSimilar returns for it, entry for entry and bit
// for bit, whatever GOMAXPROCS is.
func (s *Similarity) precompute(f Field, vs *valueSet) {
	n := len(vs.vals)
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
				fi, epoch := vs.feats[i], int32(i)+1
				probe.Set(fi)
				for _, bg := range fi.Bigrams {
					list := vs.post[bg]
					at, _ := slices.BinarySearch(list, int32(i))
					for _, j := range list[at+1:] {
						if seen[j] == epoch {
							continue
						}
						seen[j] = epoch
						scored++
						if sim := probe.Sim(vs.feats[j]); sim >= s.threshold {
							if len(buf) == pairBlock {
								blocks[w] = append(blocks[w], buf)
								buf = make([]simPair, 0, pairBlock)
							}
							buf = append(buf, simPair{int32(i), j, sim})
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

	// Count, allocate every list at its exact size, scatter, order. A value
	// with a bigram is its own candidate and scores 1 without a kernel
	// call; a one-letter value has no candidates at all and gets an empty
	// list. Lists are separate allocations because generations share them
	// one by one (UpdateSubset): a slab would stay whole for its last user.
	hasSelf := func(i int) bool { return s.threshold <= 1 && len(vs.feats[i].Bigrams) > 0 }
	size := make([]int32, n)
	for i := range size {
		if hasSelf(i) {
			size[i] = 1
		}
	}
	scored, kept := 0, 0
	for _, c := range calls {
		scored += c
	}
	for _, buf := range bufs {
		kept += len(buf)
		for _, p := range buf {
			size[p.i]++
			size[p.j]++
		}
	}
	mPairsScored.Add(int64(scored))
	mPairsKept.Add(int64(kept))

	// A list's order is similarity descending, value ascending, and a
	// value's rank in vs.vals is its place in value order, so the order
	// lives in integers: one uint64 per entry, the inverted bits of the
	// similarity (non-negative floats order as their bits) with the low
	// rankBits replaced by the rank. Sorting the keys is exact on value
	// order and drops only the similarity's last rankBits bits, which
	// orderExact repairs once the entries exist.
	rankBits := uint(bits.Len(uint(n)))
	rankMask := uint64(1)<<rankBits - 1

	// Each range of lists is filled and ordered by one goroutine, which
	// reads every pair and keeps the sides landing in its range: a
	// sequential read per goroutine buys scattered writes nobody shares.
	// The fill order follows the scheduling; the order under a total
	// comparator does not.
	lists := make([][]SimilarValue, n)
	par.Range(n, func(lo, hi int) {
		// Until it is ordered a list is a transient buffer of (key, exact
		// similarity bits) word pairs in fill order; the keys are then
		// compacted into its front half and sorted there.
		pend := make([][]uint64, hi-lo)
		filled := make([]int32, hi-lo)
		add := func(i, j int32, sim float64) {
			if int(i) >= lo && int(i) < hi {
				at := 2 * filled[int(i)-lo]
				filled[int(i)-lo]++
				simBits := math.Float64bits(sim)
				pend[int(i)-lo][at] = ^simBits&^rankMask | uint64(j)
				pend[int(i)-lo][at+1] = simBits
			}
		}
		for i := lo; i < hi; i++ {
			pend[i-lo] = make([]uint64, 2*size[i])
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
		// simOf carries one list's exact similarities across the key sort,
		// by rank. Each buffer is dropped as soon as its list exists, so
		// the transient words shrink as the lists grow.
		simOf := make([]float64, n)
		for i := lo; i < hi; i++ {
			buf := pend[i-lo]
			keys := buf[:len(buf)/2]
			for at := range keys {
				k := buf[2*at]
				simOf[k&rankMask] = math.Float64frombits(buf[2*at+1])
				keys[at] = k
			}
			slices.Sort(keys)
			list := make([]SimilarValue, len(keys))
			for at, k := range keys {
				list[at] = SimilarValue{Value: vs.vals[k&rankMask], Sim: simOf[k&rankMask]}
			}
			pend[i-lo] = nil
			orderExact(list, rankBits)
			lists[i] = list
		}
	})
	s.lists[f] = make(map[string][]SimilarValue, n)
	for i, v := range vs.vals {
		s.lists[f][v] = lists[i]
	}
}

// orderExact finishes a list that is sorted on its keys: under compareSim
// except that entries whose similarities agree above the low rankBits bits
// stand in value order whatever those bits say. Equal similarities are
// therefore in place already, and a stretch of agreeing similarities that
// holds a larger one after a smaller one needs only a stable sort on the
// exact similarity: the value order it starts in is the tie-break.
func orderExact(list []SimilarValue, rankBits uint) {
	coarse := func(sim float64) uint64 { return math.Float64bits(sim) >> rankBits }
	for lo := 0; lo < len(list); {
		hi, ordered := lo+1, true
		for ; hi < len(list) && coarse(list[hi].Sim) == coarse(list[lo].Sim); hi++ {
			ordered = ordered && list[hi-1].Sim >= list[hi].Sim
		}
		if !ordered {
			slices.SortStableFunc(list[lo:hi], func(x, y SimilarValue) int { return cmp.Compare(y.Sim, x.Sim) })
		}
		lo = hi
	}
}
