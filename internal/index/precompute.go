// The all-pairs similarity precompute of Build.
//
// S holds, for every indexed name, the indexed names at or above the
// threshold among those sharing a bigram with it. Name similarity is
// symmetric, so the pass scores each unordered bigram-sharing pair once and
// writes the score into both values' lists, instead of probing from every
// value and scoring each pair from both sides.
package index

import (
	"slices"

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

// precompute computes and stores the similarity list of every value in vs:
// exactly the list computeSimilar returns for it, entry for entry and bit
// for bit, whatever GOMAXPROCS is.
func (s *Similarity) precompute(f Field, vs *valueSet) {
	n := len(vs.vals)
	chunks := (n + pairChunk - 1) / pairChunk
	bufs := make([][]simPair, par.Procs(chunks))
	calls := make([]int, len(bufs))
	par.Pull(chunks, func(w int, next func() int) {
		// seen[j] == i+1 marks j as already scored against i: each i
		// belongs to one worker, so its number is the epoch and the
		// marks never need clearing.
		seen := make([]int32, n)
		var buf []simPair
		scored := 0
		for c := next(); c < chunks; c = next() {
			for i := c * pairChunk; i < min((c+1)*pairChunk, n); i++ {
				fi, epoch := vs.feats[i], int32(i)+1
				for _, bg := range fi.Bigrams {
					list := vs.post[bg]
					at, _ := slices.BinarySearch(list, int32(i))
					for _, j := range list[at+1:] {
						if seen[j] == epoch {
							continue
						}
						seen[j] = epoch
						scored++
						if sim := simcache.NameSimFeatures(fi, vs.feats[j]); sim >= s.threshold {
							buf = append(buf, simPair{int32(i), j, sim})
						}
					}
				}
			}
		}
		bufs[w], calls[w] = buf, scored
	})

	// Count, allocate every list at its exact size, scatter, sort. A value
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
	for w, buf := range bufs {
		scored += calls[w]
		kept += len(buf)
		for _, p := range buf {
			size[p.i]++
			size[p.j]++
		}
	}
	mPairsScored.Add(int64(scored))
	mPairsKept.Add(int64(kept))

	// Each range of lists is filled and sorted by one goroutine, which
	// reads every pair and keeps the sides landing in its range: a
	// sequential read per goroutine buys scattered writes nobody shares.
	// The fill order follows the scheduling; the sort, under a total
	// order, does not.
	lists := make([][]SimilarValue, n)
	par.Range(n, func(lo, hi int) {
		add := func(i, j int32, sim float64) {
			if int(i) >= lo && int(i) < hi {
				lists[i] = append(lists[i], SimilarValue{Value: vs.vals[j], Sim: sim})
			}
		}
		for i := lo; i < hi; i++ {
			lists[i] = make([]SimilarValue, 0, size[i])
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
		for i := lo; i < hi; i++ {
			slices.SortFunc(lists[i], compareSim)
		}
	})
	for i, v := range vs.vals {
		s.shard(f, v).sims[v] = lists[i]
	}
}
