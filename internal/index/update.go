// Incremental index maintenance for live-ingest flushes.
//
// A flush extends the previous resolution with one small batch of records,
// so the set of indexed values barely moves between generations. K is cheap
// and is built fresh (a few milliseconds at DS-4k, which is what translating
// the previous postings through an old-to-new node-id map cost as well: both
// read every posting). The dominant cost of a rebuild is S's name-similarity
// lists, and S is entirely value-keyed, so UpdateSubset patches the previous
// S around the handful of indexed values that appeared or disappeared.
// Everything untouched is shared by reference with the previous generation,
// which keeps serving concurrently: shared similarity lists and bigram
// lists are never mutated in place.
package index

import (
	"maps"
	"slices"
	"sync/atomic"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// simFields are the string fields whose bigram postings S keeps; nameFields
// are the ones whose similarity lists it precomputes (locations are probed
// at query time).
var (
	simFields  = []Field{FieldFirstName, FieldSurname, FieldLocation}
	nameFields = simFields[:2]
)

// UpdateSubset builds the indexes over the nodes of g accepted by keep (nil
// keeps every node): K is built like any other, S is the previous
// generation's patched around the difference between the two K's value
// sets. prevK and prevS are only read, without any lock — nothing writes an
// index once it is published — and the similarity threshold is prevS's. The
// returned indexes answer Lookup and Similar identically to a fresh
// BuildSubset(g, keep, threshold), whatever subset prevK and prevS were
// built over. Whether patching is worth it at all is the caller's decision
// (shard.Coordinator.Advance).
func UpdateSubset(g *pedigree.Graph, keep func(pedigree.NodeID) bool, prevK *Keyword, prevS *Similarity) (*Keyword, *Similarity) {
	defer obs.StartStage("index.update").Stop()
	k := buildKeyword(g, keep)
	return k, updateSimilarity(k, prevK, prevS)
}

// simPatch collects the edits one carried-over similarity list needs:
// entries for values that just became indexed, entries of values that left
// the index.
type simPatch struct {
	add []SimilarValue
	rem map[string]bool
}

// applyPatch merges a sorted similarity list with a patch into a fresh,
// sorted list; the input list (shared with the previous generation) is not
// modified. Each added entry is placed by binary search and the runs
// between them are copied whole, so a long list costs a few comparisons.
func applyPatch(list []SimilarValue, p *simPatch) []SimilarValue {
	slices.SortFunc(p.add, compareSim)
	out := make([]SimilarValue, 0, len(list)+len(p.add))
	for _, a := range p.add {
		at, _ := slices.BinarySearchFunc(list, a, compareSim)
		out = append(appendKept(out, list[:at], p.rem), a)
		list = list[at:]
	}
	return appendKept(out, list, p.rem)
}

// appendKept appends the entries of list whose value is not in rem.
func appendKept(out, list []SimilarValue, rem map[string]bool) []SimilarValue {
	if rem == nil {
		return append(out, list...)
	}
	for _, sv := range list {
		if !rem[sv.Value] {
			out = append(out, sv)
		}
	}
	return out
}

// updateSimilarity patches S around the indexed-value diff. S is entirely
// value-keyed — node ids never appear in it — so an indexed value's list
// changes only when a value similar to it (which therefore shares a bigram
// with it) was added to or removed from the index. The edits are driven
// from the diff side: each added value's candidate scan says exactly which
// existing lists gain an entry, each removed value's own previous list says
// which lists lose one. Every untouched list is carried over by reference;
// patched lists are fresh copies. The probe cache is not carried: the new
// generation starts with an empty one.
func updateSimilarity(k, prevK *Keyword, prevS *Similarity) *Similarity {
	s := &Similarity{threshold: prevS.threshold}
	for _, f := range simFields {
		added, removed := valueDiff(k.postings[f], prevK.postings[f])
		removedIDs := make(map[symbol.ID]bool, len(removed))
		for _, v := range removed {
			removedIDs[symbol.Intern(v)] = true
		}
		// Diff values are (or were) indexed, hence interned; their bigram
		// signatures come from the feature slab.
		changed := map[strsim.BigramID]bool{}
		for _, v := range slices.Concat(added, removed) {
			for _, bg := range simcache.Feat(symbol.Intern(v)).Bigrams {
				changed[bg] = true
			}
		}

		// Bigram postings, copy-on-write: lists touched by the diff are
		// decoded and rebuilt (removed values filtered out, added values
		// appended, re-sorted, re-encoded); the rest share the previous
		// generation's immutable encoded bytes.
		bp := make(map[strsim.BigramID]postingList[symbol.ID], len(prevS.bigramPost[f]))
		work := map[strsim.BigramID][]symbol.ID{}
		for bg, vals := range prevS.bigramPost[f] {
			if !changed[bg] {
				bp[bg] = vals
				continue
			}
			out := make([]symbol.ID, 0, vals.len()+1)
			for it := vals.iter(); ; {
				id, ok := it.Next()
				if !ok {
					break
				}
				if !removedIDs[id] {
					out = append(out, id)
				}
			}
			work[bg] = out
		}
		for _, a := range added {
			aid := symbol.Intern(a)
			for _, bg := range simcache.Feat(aid).Bigrams {
				work[bg] = append(work[bg], aid)
			}
		}
		for bg, ids := range work {
			if len(ids) == 0 {
				continue // bigram disappeared with its values
			}
			slices.Sort(ids)
			bp[bg] = encodePostings(ids)
		}
		s.bigramPost[f] = bp
		s.probes[f] = make([]atomic.Pointer[probeEntry], symbol.Len()+probeSlots)
		if !slices.Contains(nameFields, f) {
			continue // not precomputed: a location has postings and no list
		}

		// Compute the added values' own lists against the patched bigram
		// postings (they see each other and every surviving value), and
		// derive from each scan the patch every existing indexed value's
		// list needs: a's candidates with sim >= threshold are exactly the
		// lists a belongs in, with the same (symmetric) similarity.
		addedSet := make(map[string]bool, len(added))
		for _, a := range added {
			addedSet[a] = true
		}
		patches := map[string]*simPatch{}
		getPatch := func(v string) *simPatch {
			p := patches[v]
			if p == nil {
				p = &simPatch{}
				patches[v] = p
			}
			return p
		}
		addedLists := make([][]SimilarValue, len(added))
		par.Range(len(added), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				addedLists[i] = s.computeSimilar(f, added[i])
			}
		})
		for i, a := range added {
			for _, sv := range addedLists[i] {
				if sv.Value == a || addedSet[sv.Value] {
					continue // fresh lists are already complete
				}
				getPatch(sv.Value).add = append(getPatch(sv.Value).add, SimilarValue{Value: a, Sim: sv.Sim})
			}
		}
		// S is symmetric (the property the all-pairs precompute rests on), so
		// a removed value's own previous list names exactly the lists it
		// appears in.
		for _, r := range removed {
			for _, sv := range prevS.lists[f][r] {
				if _, gone := slices.BinarySearch(removed, sv.Value); gone {
					continue
				}
				p := getPatch(sv.Value)
				if p.rem == nil {
					p.rem = map[string]bool{}
				}
				p.rem[r] = true
			}
		}

		// Carry the previous generation's lists over: by reference when
		// untouched, patched into a fresh copy when the diff reaches them.
		lists := maps.Clone(prevS.lists[f])
		for _, r := range removed {
			delete(lists, r)
		}
		for v, pch := range patches {
			lists[v] = applyPatch(lists[v], pch)
		}
		for i, a := range added {
			lists[a] = addedLists[i]
		}
		s.lists[f] = lists
	}
	return s
}

// valueDiff returns the values present only in cur (added) and only in
// prev (removed), sorted.
func valueDiff(cur, prev map[string]postingList[pedigree.NodeID]) (added, removed []string) {
	for v := range cur {
		if _, ok := prev[v]; !ok {
			added = append(added, v)
		}
	}
	for v := range prev {
		if _, ok := cur[v]; !ok {
			removed = append(removed, v)
		}
	}
	slices.Sort(added)
	slices.Sort(removed)
	return added, removed
}
