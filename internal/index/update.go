// Incremental index maintenance for live-ingest flushes.
//
// A flush extends the previous resolution with one small batch of records,
// so the set of indexed values barely moves between generations. K is cheap
// and is built fresh (a few milliseconds at DS-4k, which is what translating
// the previous postings through an old-to-new node-id map cost as well: both
// read every posting). The dominant cost of a rebuild is scoring S's
// name-similarity lists, and S is entirely value-keyed, so UpdateSubset
// scores only the values that appeared and rewrites, in one sequential
// pass, the block of each field whose vocabulary changed — unless so many
// values appeared that scoring the field from scratch is cheaper. A field
// the flush did not reach shares its block and its bigram postings with the
// previous generation, which keeps serving concurrently: nothing published
// is ever mutated in place.
package index

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/symbol"
)

// simFields are the string fields whose bigram postings S keeps; nameFields
// are the ones whose similarity lists it precomputes (locations are probed
// at query time).
var (
	simFields  = []Field{FieldFirstName, FieldSurname, FieldLocation}
	nameFields = simFields[:2]
)

// rebuildAbove is the share of a name field's new value set that may be
// values the previous generation did not index before patching its block
// stops paying. A rewrite scores every added value one-sidedly, so its cost
// grows with the added share, while precompute costs the same whatever the
// previous generation held. On BenchmarkUpdateSubset a patch costs as much
// as a rebuild at 12–13% added values and a fifth less at 9–10% (DESIGN.md
// §4.9): the bound is the round tenth, just under the crossover.
const rebuildAbove = 0.1

// UpdateSubset builds the indexes over the nodes of g accepted by keep (nil
// keeps every node): K is built like any other, S is the previous
// generation's carried across the difference between the two K's value
// sets. prevK and prevS are only read, without any lock — nothing writes an
// index once it is published — and the similarity threshold is prevS's. The
// returned indexes answer Lookup and Similar identically to a fresh
// BuildSubset(g, keep, threshold), whatever subset prevK and prevS were
// built over; rebuilt is how many name-field blocks were scored from
// scratch rather than patched or shared.
func UpdateSubset(g *pedigree.Graph, keep func(pedigree.NodeID) bool, prevK *Keyword, prevS *Similarity) (k *Keyword, s *Similarity, rebuilt int) {
	defer obs.StartStage("index.update").Stop()
	k = buildKeyword(g, keep)
	s, rebuilt = updateSimilarity(k, prevK, prevS, rebuildAbove)
	mFullRebuild.Add(int64(rebuilt))
	mIncremental.Add(int64(len(nameFields) - rebuilt))
	return k, s, rebuilt
}

// updateSimilarity carries S across the indexed-value diff, field by field,
// and is where S is either patched or rebuilt. A field whose value set did
// not move is shared by reference. Otherwise its bigram postings are built
// from the new value set (a millisecond), and a name field's block is
// scored from scratch (precompute) when more than rebuildAt of its new
// values were added, or rewritten around the diff (rewriteBlock). A build is
// this function run against an empty previous index, where every value is
// added. rebuilt counts the blocks precompute wrote. rebuildAt is
// rebuildAbove on every path but the crossover benchmark, which times the
// rewrite at any share. The probe cache is not carried: the new generation
// starts with an empty one.
func updateSimilarity(k, prevK *Keyword, prevS *Similarity, rebuildAt float64) (s *Similarity, rebuilt int) {
	s = &Similarity{threshold: prevS.threshold}
	for _, f := range simFields {
		s.probes[f] = make([]atomic.Pointer[probeEntry], symbol.Len()+probeSlots)
		added, removed := valueDiff(k.postings[f], prevK.postings[f])
		if len(added)+len(removed) == 0 {
			s.bigramPost[f], s.blocks[f] = prevS.bigramPost[f], prevS.blocks[f]
			continue
		}
		s.bigramPost[f] = bigramPostings(k.postings[f])
		switch {
		case f == FieldLocation:
			// A location has postings and no lists: nothing is precomputed.
		case float64(len(added)) > rebuildAt*float64(len(k.postings[f])):
			s.precompute(f, k.postings[f])
			rebuilt++
		default:
			s.blocks[f] = s.rewriteBlock(f, prevS.blocks[f], added, removed)
		}
	}
	return s, rebuilt
}

// rowEdit is one change the diff makes to a surviving row: the entry of a
// value that became indexed, to merge in, or of one that left, to leave out.
type rowEdit struct {
	row uint32
	simEntry
	remove bool
}

// rewriteBlock writes the field's next block from the previous one: removed
// values' rows dropped, every surviving row copied with its edits merged in
// under compareSim, the added values' rows appended. It reads old and the
// new bigram postings and writes fresh arrays of the exact size, in one
// sequential pass whose cost is the block's, however many values the flush
// added.
func (s *Similarity) rewriteBlock(f Field, old *simBlock, added, removed []symbol.ID) *simBlock {
	// An added value is in no old row and a removed one in no new list, so
	// one set of both says which entries of a diff value's list to skip.
	inDiff := make(map[symbol.ID]bool, len(added)+len(removed))
	for _, id := range slices.Concat(added, removed) {
		inDiff[id] = true
	}
	// The added values' own lists, against the new bigram postings: they see
	// each other and every surviving value.
	fresh := make([]SimilarList, len(added))
	par.Range(len(added), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fresh[i] = s.computeSimilar(f, symbol.Str(added[i]))
		}
	})
	// S is symmetric (the property the all-pairs precompute rests on, and one
	// score is always written to both sides), so a diff value's own list
	// names exactly the surviving rows it enters or leaves, and the
	// similarity there is where the entry stands in each. The block grows or
	// shrinks by that list and by one entry in each of those rows.
	var edits []rowEdit
	total := len(old.ids)
	mirror := func(v symbol.ID, l SimilarList, sign int) {
		total += sign * l.Len()
		for i, id := range l.ids {
			if !inDiff[id] {
				edits = append(edits, rowEdit{old.rows[symbol.Str(id)], simEntry{v, l.sims[i]}, sign < 0})
				total += sign
			}
		}
	}
	for i, a := range added {
		mirror(a, fresh[i], +1)
	}
	for _, r := range removed {
		mirror(r, old.row(old.rows[symbol.Str(r)]), -1)
	}
	slices.SortFunc(edits, func(x, y rowEdit) int {
		return cmp.Or(cmp.Compare(x.row, y.row), compareSim(x.simEntry, y.simEntry))
	})

	n := len(old.vals) - len(removed) + len(added)
	b := &simBlock{
		rows: make(map[string]uint32, n), vals: make([]symbol.ID, 0, n), offsets: make([]uint32, 1, n+1),
		ids: make([]symbol.ID, 0, total), sims: make([]float64, 0, total),
	}
	endRow := func(v symbol.ID) {
		b.rows[symbol.Str(v)] = uint32(len(b.vals))
		b.vals = append(b.vals, v)
		b.offsets = append(b.offsets, uint32(len(b.ids)))
	}
	for r, v := range old.vals {
		if inDiff[v] {
			continue
		}
		// Each edit is placed by binary search and the runs between them are
		// copied whole, so a long row costs a few comparisons.
		lo, hi := int(old.offsets[r]), int(old.offsets[r+1])
		for ; len(edits) > 0 && edits[0].row == uint32(r); edits = edits[1:] {
			ed := edits[0]
			at := lo + sort.Search(hi-lo, func(i int) bool {
				return compareSim(simEntry{old.ids[lo+i], old.sims[lo+i]}, ed.simEntry) >= 0
			})
			b.ids, b.sims = append(b.ids, old.ids[lo:at]...), append(b.sims, old.sims[lo:at]...)
			lo = at
			if !ed.remove {
				b.ids, b.sims = append(b.ids, ed.id), append(b.sims, ed.sim)
			} else if lo++; at == hi || old.ids[at] != ed.id {
				panic("index: a removed value's list names a row that does not list it")
			}
		}
		b.ids, b.sims = append(b.ids, old.ids[lo:hi]...), append(b.sims, old.sims[lo:hi]...)
		endRow(v)
	}
	for i, a := range added {
		b.ids, b.sims = append(b.ids, fresh[i].ids...), append(b.sims, fresh[i].sims...)
		endRow(a)
	}
	return b
}

// valueDiff returns the values present only in cur (added) and only in
// prev (removed), as symbols (both are or were indexed, hence interned), in
// id order.
func valueDiff(cur, prev map[string]postingList[pedigree.NodeID]) (added, removed []symbol.ID) {
	only := func(in, notIn map[string]postingList[pedigree.NodeID]) (ids []symbol.ID) {
		for v := range in {
			if _, ok := notIn[v]; !ok {
				ids = append(ids, symbol.Intern(v))
			}
		}
		slices.Sort(ids)
		return ids
	}
	return only(cur, prev), only(prev, cur)
}
