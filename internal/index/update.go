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
// previous generation held. On BenchmarkUpdateSubset (6 runs) a patch beat
// a rebuild in every run at 12–13% added values, by 7% in the median, and
// lost in 5 of 6 at 15–16% (DESIGN.md §4.9): the bound is the round
// share just under the last added share at which the patch always won.
const rebuildAbove = 0.12

// UpdateSubset builds the indexes over the nodes of g accepted by keep (nil
// keeps every node): K is built like any other, S is the previous
// generation's carried across the difference between the two K's value
// sets. prevK and prevS are only read, without any lock — nothing writes an
// index once it is published — and the similarity threshold is prevS's. The
// returned indexes answer Entities and Similar identically to a fresh
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
// not move is shared by reference. Otherwise its rank order and bigram
// postings are built from the new value set (a millisecond), and a name
// field's block is
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
		vocab := k.fields[f].vals
		added, removed := valueDiff(vocab, prevK.fields[f].vals)
		if len(added)+len(removed) == 0 {
			s.ranked[f], s.bigramPost[f], s.blocks[f] = prevS.ranked[f], prevS.bigramPost[f], prevS.blocks[f]
			continue
		}
		s.ranked[f] = stringOrder(vocab)
		s.bigramPost[f] = bigramPostings(s.ranked[f])
		switch {
		case f == FieldLocation:
			// A location has postings and no lists: nothing is precomputed.
		case float64(len(added)) > rebuildAt*float64(len(vocab)):
			s.precompute(f)
			rebuilt++
		default:
			s.blocks[f] = s.rewriteBlock(f, prevS)
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

// rewriteBlock writes the field's next block from prev's: every row of a
// surviving value copied with its edits merged in under compareSim, every
// added value's list computed, each at its new rank, and the removed
// values' rows dropped. It walks the new and the old vocabulary side by
// side in string order and writes fresh arrays of the exact size, in one
// sequential pass whose cost is the block's, however many values the flush
// added. The new block has pages of its own: a surviving entry's code is
// translated through a remap of its old page's codes, filled as they recur.
func (s *Similarity) rewriteBlock(f Field, prev *Similarity) *simBlock {
	old, oldRanked, ranked := prev.blocks[f], prev.ranked[f], s.ranked[f]
	// from[r] is the old row of the value of rank r, or -1 when the value
	// was added; added lists those ranks and removed the rows of the values
	// that left, both ascending. survivor[id] is the rank of a value in both
	// vocabularies plus one, 0 for any other id.
	from := make([]int32, len(ranked))
	survivor := make([]uint32, symbol.Len())
	var added, removed []int
	o := 0
	for r, v := range ranked {
		for ; o < len(oldRanked) && symbol.Str(oldRanked[o]) < symbol.Str(v); o++ {
			removed = append(removed, o)
		}
		if o < len(oldRanked) && oldRanked[o] == v {
			from[r], survivor[v] = int32(o), uint32(r)+1
			o++
		} else {
			from[r] = -1
			added = append(added, r)
		}
	}
	for ; o < len(oldRanked); o++ {
		removed = append(removed, o)
	}
	// The added values' own lists, against the new bigram postings: they see
	// each other and every surviving value.
	fresh := make([]SimilarList, len(added))
	par.Range(len(added), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fresh[i] = s.computeSimilar(f, symbol.Str(ranked[added[i]]))
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
			if r := survivor[id]; r > 0 {
				edits = append(edits, rowEdit{r - 1, simEntry{v, l.Sim(i)}, sign < 0})
				total += sign
			}
		}
	}
	for i, r := range added {
		mirror(ranked[r], fresh[i], +1)
	}
	for _, r := range removed {
		mirror(oldRanked[r], prev.row(f, r), -1)
	}
	slices.SortFunc(edits, func(x, y rowEdit) int {
		return cmp.Or(cmp.Compare(x.row, y.row), compareSim(x.simEntry, y.simEntry))
	})

	b := &simBlock{
		offsets: make([]uint32, 1, len(ranked)+1),
		ids:     make([]symbol.ID, 0, total), codes: make([]uint16, 0, total),
	}
	c := newCoder()
	// remap[code] is the new code of an old page's code plus one, 0 until
	// the code recurs; it holds for one old page and one new page. At the
	// size of every code, it is indexed without a bounds check.
	remap := new([maxTable]uint32)
	remapOld, remapNew := -1, -1
	// copyRun appends the old entries [lo, hi) of a row whose page has
	// table.
	copyRun := func(table []float64, lo, hi int) {
		b.ids = append(b.ids, old.ids[lo:hi]...)
		at := len(b.codes)
		b.codes = b.codes[:at+hi-lo]
		dst := b.codes[at:]
		for i, code := range old.codes[lo:hi] {
			nc := remap[code]
			if nc == 0 {
				nc = uint32(c.code(table[code])) + 1
				remap[code] = nc
			}
			dst[i] = uint16(nc - 1)
		}
	}
	// appendEntry appends one entry that is not in the old block.
	appendEntry := func(id symbol.ID, sim float64) {
		b.ids, b.codes = append(b.ids, id), append(b.codes, c.code(sim))
	}
	for r, was := range from {
		if was < 0 {
			l := fresh[0]
			fresh = fresh[1:]
			c.row(uint32(r), l.Len())
			for j, id := range l.ids {
				appendEntry(id, l.Sim(j))
			}
		} else {
			lo, hi := int(old.offsets[was]), int(old.offsets[was+1])
			e := 0
			for e < len(edits) && edits[e].row == uint32(r) {
				e++
			}
			// The row keeps at most its old entries and gains at most one per edit.
			c.row(uint32(r), hi-lo+e)
			if p := old.page(uint32(was)); p != remapOld || len(c.pages) != remapNew {
				remapOld, remapNew = p, len(c.pages)
				clear(remap[:len(old.pages[p].table)])
			}
			// Each edit is placed by binary search and the runs between them are
			// copied whole, so a long row costs a few comparisons.
			table := old.pages[remapOld].table
			for _, ed := range edits[:e] {
				at := lo + sort.Search(hi-lo, func(i int) bool {
					return compareSim(simEntry{old.ids[lo+i], table[old.codes[lo+i]]}, ed.simEntry) >= 0
				})
				copyRun(table, lo, at)
				lo = at
				if !ed.remove {
					appendEntry(ed.id, ed.sim)
				} else if lo++; at == hi || old.ids[at] != ed.id {
					panic("index: a removed value's list names a row that does not list it")
				}
			}
			edits = edits[e:]
			copyRun(table, lo, hi)
		}
		b.offsets = append(b.offsets, uint32(len(b.ids)))
	}
	b.pages = c.pages
	return b
}

// valueDiff returns the ids present only in cur (added) and only in prev
// (removed), two vocabularies in ascending id order, in id order.
func valueDiff(cur, prev []symbol.ID) (added, removed []symbol.ID) {
	i, j := 0, 0
	for i < len(cur) || j < len(prev) {
		switch {
		case j == len(prev) || i < len(cur) && cur[i] < prev[j]:
			added = append(added, cur[i])
			i++
		case i == len(cur) || prev[j] < cur[i]:
			removed = append(removed, prev[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return added, removed
}
