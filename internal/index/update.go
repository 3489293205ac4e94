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
	"slices"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/par"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/simcache"
	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

var (
	mIncremental = obs.Default.Counter("snaps_index_incremental_total",
		"Index updates satisfied by patching the previous generation's indexes.")
	mFullRebuild = obs.Default.Counter("snaps_index_full_rebuild_total",
		"Index updates that fell back to a full rebuild.")
)

// MaxDirtyFraction bounds the incremental path: when more than this
// fraction of the pedigree nodes changed cluster membership since the
// previous build, patching the indexes approaches the cost of rebuilding
// them and UpdateSubset falls back to a full build.
const MaxDirtyFraction = 0.25

// UpdateStats reports how an index update was satisfied.
type UpdateStats struct {
	// Incremental is true when the previous indexes were patched; false
	// when a full build ran, with Reason saying why.
	Incremental bool
	Reason      string
	// TotalNodes and DirtyNodes size the update: dirty nodes are the
	// pedigree nodes whose record set has no identical counterpart in the
	// previous graph and therefore had to be reindexed.
	TotalNodes int
	DirtyNodes int
	// AddedValues and RemovedValues count distinct indexed string values
	// that appeared or disappeared across the similarity fields.
	AddedValues   int
	RemovedValues int
	// ReusedSimLists, PatchedSimLists, and DroppedSimLists count memoised
	// similarity lists carried over by reference, copied with added/removed
	// entries merged in, and invalidated for lazy recompute (non-indexed
	// probe values whose candidate set changed), respectively.
	ReusedSimLists  int
	PatchedSimLists int
	DroppedSimLists int
}

// simFields are the string fields covered by the similarity index S.
var simFields = []Field{FieldFirstName, FieldSurname, FieldLocation}

// UpdateSubset builds the indexes over the nodes of g accepted by keep (nil
// keeps every node) by patching the previous generation's indexes where
// their contents are provably unchanged. prevG, prevK, and prevS are the
// graph and indexes of the generation still being served; they are read
// (under the memo locks where required) but never mutated. The returned
// indexes answer Lookup and Similar identically to a fresh
// BuildSubset(g, keep, simThreshold).
//
// prevK and prevS must be the previous generation's indexes over the SAME
// subset — for the serving shards that holds structurally: the owning shard
// of an entity is a pure function of its record set, so a node whose record
// set is unchanged (clean) is owned by the same shard in both generations,
// and every node that moved in or out of the subset is dirty and gets
// reindexed (moved in) or dropped by posting translation (moved out).
//
// UpdateSubset falls back to a full BuildSubset — and says so in the
// returned stats — when there is no previous generation, the similarity
// threshold changed, or too many nodes are dirty for patching to pay off.
func UpdateSubset(g *pedigree.Graph, keep func(pedigree.NodeID) bool, prevG *pedigree.Graph, prevK *Keyword, prevS *Similarity, simThreshold float64) (*Keyword, *Similarity, UpdateStats) {
	if prevG == nil || prevK == nil || prevS == nil {
		return fullRebuild(g, keep, simThreshold, "no previous index")
	}
	if prevS.threshold != simThreshold {
		return fullRebuild(g, keep, simThreshold, "similarity threshold changed")
	}
	oldToNew, isDirty, dirtyCount, total := classifyNodes(g, prevG, keep)
	if total == 0 || float64(dirtyCount) > MaxDirtyFraction*float64(total) {
		return fullRebuild(g, keep, simThreshold, "dirty fraction above threshold")
	}
	defer obs.StartStage("index.update").Stop()
	mIncremental.Inc()
	stats := UpdateStats{
		Incremental: true,
		TotalNodes:  total,
		DirtyNodes:  dirtyCount,
	}

	k := updateKeyword(g, prevK, oldToNew, isDirty)
	s := updateSimilarity(k, prevK, prevS, simThreshold, &stats)
	return k, s, stats
}

func fullRebuild(g *pedigree.Graph, keep func(pedigree.NodeID) bool, simThreshold float64, reason string) (*Keyword, *Similarity, UpdateStats) {
	mFullRebuild.Inc()
	k, s := BuildSubset(g, keep, simThreshold)
	return k, s, UpdateStats{Reason: reason, TotalNodes: len(g.Nodes)}
}

// Classify exposes the clean/dirty classification of g's nodes against the
// previous graph: oldToNew maps each previous node to its clean
// counterpart in g (-1 when its cluster changed or it disappeared), and
// isDirty marks the nodes of g that have no identical previous record set.
// The shard coordinator uses it to decide which partitions a flush
// actually touched.
func Classify(g, prevG *pedigree.Graph) (oldToNew []pedigree.NodeID, isDirty []bool, dirtyCount int) {
	oldToNew, isDirty, dirtyCount, _ = classifyNodes(g, prevG, nil)
	return oldToNew, isDirty, dirtyCount
}

// classifyNodes matches each node of g against the previous graph. A node
// is clean when its record set is exactly the record set of one previous
// node: aggregation is a pure function of the record set (records are
// append-only across generations), so a clean node carries byte-identical
// indexed values and only its NodeID may have changed. oldToNew maps each
// previous node to its clean counterpart (-1 when its cluster changed).
// Nodes rejected by keep (nil keeps all) are skipped entirely: not
// classified, not counted in total, and never mapped into oldToNew.
func classifyNodes(g, prevG *pedigree.Graph, keep func(pedigree.NodeID) bool) (oldToNew []pedigree.NodeID, isDirty []bool, dirtyCount, total int) {
	oldToNew = make([]pedigree.NodeID, len(prevG.Nodes))
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	isDirty = make([]bool, len(g.Nodes))
	prevRecs := model.RecordID(len(prevG.Dataset.Records))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if keep != nil && !keep(n.ID) {
			continue
		}
		total++
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
			oldToNew[old] = n.ID
		} else {
			isDirty[i] = true
			dirtyCount++
		}
	}
	return oldToNew, isDirty, dirtyCount, total
}

// fieldValue keys a posting list across the per-field maps.
type fieldValue struct {
	f Field
	v string
}

// updateKeyword translates the previous postings through oldToNew and
// reindexes the dirty nodes. Compressed lists whose ids are unchanged are
// shared with the previous index (the encoded bytes are immutable); any
// list that is translated, filtered, or appended to is decoded into a
// working slice, edited, sorted, and re-encoded fresh.
func updateKeyword(g *pedigree.Graph, prevK *Keyword, oldToNew []pedigree.NodeID, isDirty []bool) *Keyword {
	k := &Keyword{}
	// touched holds the decoded working lists of every value being edited;
	// they are re-encoded into k at the end.
	touched := map[fieldValue][]pedigree.NodeID{}
	for f := Field(0); f < NumFields; f++ {
		k.postings[f] = make(map[string]postingList, len(prevK.postings[f]))
		for v, pl := range prevK.postings[f] {
			out, shared := translatePostings(pl, oldToNew)
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
		if !isDirty[i] {
			continue
		}
		n := &g.Nodes[i]
		for _, v := range n.FirstNames {
			add(FieldFirstName, v, n.ID)
		}
		for _, v := range n.Surnames {
			add(FieldSurname, v, n.ID)
		}
		for _, v := range n.Locations {
			add(FieldLocation, v, n.ID)
		}
		if gd := n.Gender.String(); gd != "?" {
			add(FieldGender, gd, n.ID)
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
// value-keyed — node ids never appear in it — so a memoised similarity
// list changes only when a value similar to it (which therefore shares a
// bigram with it) was added to or removed from the index. The edits are
// driven from the diff side: each added value's candidate scan says
// exactly which existing lists gain an entry, each removed value's scan
// (over the previous bigram postings) says which lists lose one. Every
// untouched list — precomputed or query-extended — is carried over by
// reference; patched lists are fresh copies; only memoised lists of
// NON-indexed probe values whose candidate set may have changed are
// dropped for lazy recompute (the diff scans cannot see probes).
func updateSimilarity(k, prevK *Keyword, prevS *Similarity, simThreshold float64, stats *UpdateStats) *Similarity {
	s := &Similarity{threshold: simThreshold}
	for f := Field(0); f < NumFields; f++ {
		for i := range s.shards[f] {
			s.shards[f][i].sims = map[string][]SimilarValue{}
			s.shards[f][i].inflight = map[string]*memoCall{}
		}
		s.bigramPost[f] = map[strsim.BigramID]symList{}
	}

	for _, f := range simFields {
		added, removed := valueDiff(k.postings[f], prevK.postings[f])
		stats.AddedValues += len(added)
		stats.RemovedValues += len(removed)
		removedSet := make(map[string]bool, len(removed))
		removedIDs := make(map[symbol.ID]bool, len(removed))
		for _, v := range removed {
			removedSet[v] = true
			removedIDs[symbol.Intern(v)] = true
		}
		// Diff values are (or were) indexed, hence interned; their bigram
		// signatures come from the feature slab.
		changed := map[strsim.BigramID]bool{}
		for _, v := range added {
			for _, bg := range simcache.Feat(symbol.Intern(v)).Bigrams {
				changed[bg] = true
			}
		}
		for _, v := range removed {
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
				if v == r || removedSet[v] || addedSet[v] {
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

		// Carry the previous generation's memo over: by reference when
		// untouched, patched into a fresh copy when the diff reaches it.
		// The previous index is still serving queries and memoising new
		// probes, so its shards are read under their locks.
		for i := range prevS.shards[f] {
			psh := &prevS.shards[f][i]
			nsh := &s.shards[f][i]
			psh.mu.RLock()
			for v, list := range psh.sims {
				if removedSet[v] || addedSet[v] {
					stats.DroppedSimLists++
					continue
				}
				pch := patches[v]
				if pch == nil {
					// No edits found via the index-side scans — but a
					// NON-indexed probe's list is invisible to them, so it
					// is dropped (lazily recomputed) if its candidate set
					// may have changed.
					if k.postings[f][v].len() == 0 && touchesChanged(v, changed) {
						stats.DroppedSimLists++
						continue
					}
					nsh.sims[v] = list
					stats.ReusedSimLists++
					continue
				}
				nsh.sims[v] = applyPatch(list, pch)
				stats.PatchedSimLists++
			}
			psh.mu.RUnlock()
		}
		for i, a := range added {
			s.shard(f, a).sims[a] = addedLists[i]
		}
	}

	// Safety net preserving Build's precompute invariant for the name
	// fields: any indexed value that somehow has no memoised list (e.g. it
	// was never memoised in the previous generation) is computed now, off
	// the query path.
	precompute := obs.StartStage("index_update_sims")
	for _, f := range []Field{FieldFirstName, FieldSurname} {
		var need []string
		for v := range k.postings[f] {
			if _, ok := s.shard(f, v).sims[v]; !ok {
				need = append(need, v)
			}
		}
		slices.Sort(need)
		outs := make([][]SimilarValue, len(need))
		par.Range(len(need), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				outs[i] = s.computeSimilar(f, need[i])
			}
		})
		for i, v := range need {
			s.shard(f, v).sims[v] = outs[i]
		}
	}
	precompute.Stop()
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

// touchesChanged reports whether any bigram of v is in the changed set,
// i.e. whether v's similarity candidates may have changed. v may be a
// non-indexed probe value, so it is looked up (never interned) and falls
// back to computing bigram ids on the stack when unknown.
func touchesChanged(v string, changed map[strsim.BigramID]bool) bool {
	if len(changed) == 0 {
		return false
	}
	var bgBuf [64]strsim.BigramID
	var bgs []strsim.BigramID
	if id, ok := symbol.Lookup(v); ok {
		bgs = simcache.Feat(id).Bigrams
	} else {
		bgs = strsim.AppendBigramIDs(bgBuf[:0], v)
	}
	for _, bg := range bgs {
		if changed[bg] {
			return true
		}
	}
	return false
}
