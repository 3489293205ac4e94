// Incremental index maintenance for live-ingest flushes.
//
// A flush extends the previous resolution with one small batch of records,
// so most pedigree nodes carry exactly the record set they carried in the
// previous generation — and therefore exactly the same aggregated values.
// UpdateSubset exploits that: instead of rebuilding K and S from scratch (the
// dominant cost of every flush is recomputing name-similarity lists), it
// translates the previous keyword postings through an old→new node-id map,
// reindexes only the nodes whose clusters changed, and patches the
// similarity index around the handful of indexed values that appeared or
// disappeared. Everything untouched is shared by reference with the
// previous generation, which keeps serving concurrently: shared posting
// lists, similarity lists, and bigram lists are never mutated in place.
package index

import (
	"maps"
	"slices"
	"sync/atomic"

	"github.com/snaps/snaps/internal/model"
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
// keeps every node) by patching the previous generation's indexes over the
// same subset. cl is the classification of the WHOLE graph g against the
// previous one, made once per flush; keep selects the dirty nodes that are
// this subset's. prevK and prevS are only read, without any lock — nothing
// writes an index once it is published — and the similarity threshold is
// prevS's. The returned indexes answer Lookup and Similar identically to a
// fresh BuildSubset(g, keep, threshold). Whether patching is worth it at all
// is the caller's decision (shard.Coordinator.Advance).
//
// prevK and prevS must be the previous generation's indexes over the SAME
// subset — for the serving shards that holds structurally: the owning shard
// of an entity is a pure function of its record set, so a node whose record
// set is unchanged (clean) is owned by the same shard in both generations,
// and every node that moved in or out of the subset is dirty and gets
// reindexed (moved in) or dropped by posting translation (moved out).
func UpdateSubset(g *pedigree.Graph, keep func(pedigree.NodeID) bool, cl *Classification, prevK *Keyword, prevS *Similarity) (*Keyword, *Similarity) {
	defer obs.StartStage("index.update").Stop()
	k := updateKeyword(g, keep, cl, prevK)
	return k, updateSimilarity(k, prevK, prevS)
}

// Classification is the clean/dirty split of a graph's nodes against the
// previous graph: OldToNew maps each previous node to its clean counterpart
// (-1 when its cluster changed or it disappeared), IsDirty marks the nodes
// that have no identical previous record set, Dirty counts them.
type Classification struct {
	OldToNew []pedigree.NodeID
	IsDirty  []bool
	Dirty    int
}

// Classify matches each node of g against the previous graph. A node is
// clean when its record set is exactly the record set of one previous node:
// aggregation is a pure function of the record set (records are append-only
// across generations), so a clean node carries byte-identical indexed
// values and only its NodeID may have changed. The shard coordinator calls
// it once per flush: to decide which partitions the flush touched, whether
// patching pays, and as the input of every touched shard's UpdateSubset.
func Classify(g, prevG *pedigree.Graph) *Classification {
	defer obs.StartStage("index_classify").Stop()
	cl := &Classification{
		OldToNew: make([]pedigree.NodeID, len(prevG.Nodes)),
		IsDirty:  make([]bool, len(g.Nodes)),
	}
	for i := range cl.OldToNew {
		cl.OldToNew[i] = -1
	}
	prevRecs := model.RecordID(len(prevG.Dataset.Records))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		old := pedigree.NodeID(-1)
		clean := len(n.Records) > 0
		for j, r := range n.Records {
			if r >= prevRecs {
				clean = false
				break
			}
			o, ok := prevG.NodeOfRecord(r)
			if !ok {
				clean = false
				break
			}
			if j == 0 {
				old = o
			} else if o != old {
				clean = false
				break
			}
		}
		// Same count plus containment means the sets are equal (records
		// appear in exactly one node per graph).
		if clean && len(prevG.Node(old).Records) != len(n.Records) {
			clean = false
		}
		if clean {
			cl.OldToNew[old] = n.ID
		} else {
			cl.IsDirty[i] = true
			cl.Dirty++
		}
	}
	return cl
}

// fieldValue keys a posting list across the per-field maps.
type fieldValue struct {
	f Field
	v string
}

// updateKeyword translates the previous postings through cl.OldToNew and
// reindexes the dirty nodes keep accepts. Compressed lists whose ids are
// unchanged are shared with the previous index (the encoded bytes are
// immutable); any list that is translated, filtered, or appended to is
// decoded into a working slice, edited, sorted, and re-encoded fresh.
func updateKeyword(g *pedigree.Graph, keep func(pedigree.NodeID) bool, cl *Classification, prevK *Keyword) *Keyword {
	k := &Keyword{}
	// touched holds the decoded working lists of every value being edited;
	// they are re-encoded into k at the end.
	touched := map[fieldValue][]pedigree.NodeID{}
	for f := Field(0); f < NumFields; f++ {
		k.postings[f] = make(map[string]postingList, len(prevK.postings[f]))
		for v, pl := range prevK.postings[f] {
			out, shared := translatePostings(pl, cl.OldToNew)
			if shared {
				k.postings[f][v] = pl
				continue
			}
			if len(out) == 0 {
				continue // value disappeared with its dirty nodes
			}
			touched[fieldValue{f, v}] = out
		}
	}

	add := func(f Field, v string, id pedigree.NodeID) {
		key := fieldValue{f, v}
		ids, ok := touched[key]
		if !ok {
			// First edit of a carried-over (or absent) list: decode it so
			// the shared encoded bytes are never appended to.
			ids = k.postings[f][v].decode()
		}
		touched[key] = append(ids, id)
	}
	for i := range g.Nodes {
		if n := &g.Nodes[i]; cl.IsDirty[i] && (keep == nil || keep(n.ID)) {
			eachIndexedValue(n, add)
		}
	}

	for key, ids := range touched {
		slices.Sort(ids)
		k.postings[key.f][key.v] = encodePostings(ids)
	}
	return k
}

// translatePostings maps a compressed posting list through oldToNew,
// dropping ids of previous nodes that no longer have a clean counterpart.
// When the mapping is the identity for every id the encoded list can be
// shared as-is; otherwise the decoded, translated (possibly unsorted)
// list is returned for further edits.
func translatePostings(pl postingList, oldToNew []pedigree.NodeID) ([]pedigree.NodeID, bool) {
	shared := true
	for it := pl.iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if oldToNew[id] != id {
			shared = false
			break
		}
	}
	if shared {
		return nil, true
	}
	out := make([]pedigree.NodeID, 0, pl.len())
	for it := pl.iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if nid := oldToNew[id]; nid >= 0 {
			out = append(out, nid)
		}
	}
	return out, false
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
// existing lists gain an entry, each removed value's scan (over the
// previous bigram postings) says which lists lose one. Every untouched
// list is carried over by reference; patched lists are fresh copies. The
// probe cache is not carried: the new generation starts with an empty one.
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
		bp := make(map[strsim.BigramID]symList, len(prevS.bigramPost[f]))
		work := map[strsim.BigramID][]symbol.ID{}
		for bg, vals := range prevS.bigramPost[f] {
			if !changed[bg] {
				bp[bg] = vals
				continue
			}
			out := make([]symbol.ID, 0, vals.len()+1)
			for it := vals.iter(); ; {
				id, ok := it.next()
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
			bp[bg] = encodeSyms(ids)
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
		// A removed value's list entries all shared a bigram with it, so a
		// scan of the PREVIOUS bigram postings finds every list it may
		// appear in.
		sc := candPool.Get().(*candScratch)
		for _, r := range removed {
			for _, id := range sc.candidates(prevS.bigramPost[f], simcache.Feat(symbol.Intern(r)).Bigrams) {
				v := symbol.Str(id)
				if removedIDs[id] || addedSet[v] {
					continue
				}
				p := getPatch(v)
				if p.rem == nil {
					p.rem = map[string]bool{}
				}
				p.rem[r] = true
			}
		}
		candPool.Put(sc)

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
func valueDiff(cur, prev map[string]postingList) (added, removed []string) {
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
