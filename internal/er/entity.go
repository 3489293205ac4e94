// Package er implements the core contribution of the paper: the
// unsupervised graph-based entity-resolution process of SNAPS, consisting
// of bootstrapping and merging over a dependency graph with global
// propagation of QID values and constraints (PROP-A/PROP-C), ambiguity-
// aware similarity (AMB), adaptive leveraging of relationship structure
// (REL), and dynamic refinement of record clusters (REF).
package er

import (
	"sort"

	"github.com/snaps/snaps/internal/model"
)

// EntityID identifies a record cluster (an entity o ∈ O). Entities are
// created lazily: a record not yet linked to anything is its own implicit
// singleton entity.
type EntityID int32

// NoEntity marks records without an explicit entity.
const NoEntity EntityID = -1

// linkEdge records that the ER process linked two records of one entity
// (a merged relational node). It is the edge set of the entity's record
// graph used by the REF technique.
type linkEdge struct {
	a, b model.RecordID
}

// entity is one record cluster.
type entity struct {
	id      EntityID
	records []model.RecordID
	links   []linkEdge
	dead    bool
}

// EntityStore maintains the record clusters and their QID value sets.
// Unlike a union-find it supports unmerging (record removal and bridge
// splitting), which the REF technique requires.
type EntityStore struct {
	d        *model.Dataset
	entityOf []EntityID // per record; NoEntity when singleton/unassigned
	entities []entity
	// ver stamps each record's entity view: any mutation that changes the
	// record set visible from a record (Link, Unlink, bridge splits) bumps
	// the stamp of every affected record. The resolver's node-similarity
	// cache keys on these stamps, so a cached score stays valid exactly as
	// long as both records' views are unchanged.
	ver []uint32
}

// NewEntityStore returns an empty store over the data set.
func NewEntityStore(d *model.Dataset) *EntityStore {
	eo := make([]EntityID, len(d.Records))
	for i := range eo {
		eo[i] = NoEntity
	}
	return &EntityStore{d: d, entityOf: eo, ver: make([]uint32, len(d.Records))}
}

// newSharedStore wraps pre-allocated record tables: the component
// resolvers of Resolve share one entityOf and one ver slab (records are
// partitioned across components, so slots never contend) while keeping
// their own entity lists.
func newSharedStore(d *model.Dataset, entityOf []EntityID, ver []uint32) *EntityStore {
	return &EntityStore{d: d, entityOf: entityOf, ver: ver}
}

// bumpViews marks every record of an entity as having a changed view.
func (s *EntityStore) bumpViews(e EntityID) {
	for _, r := range s.entities[e].records {
		s.ver[r]++
	}
}

// seed installs an existing cluster (records plus link edges) as the next
// entity, used when Resolve hands a component's share of a pre-populated
// store to its component resolver. The slices are owned by the store
// afterwards.
func (s *EntityStore) seed(records []model.RecordID, links []linkEdge) {
	s.adopt(records, links)
	for _, r := range records {
		s.ver[r]++
	}
}

// adopt appends a cluster resolved elsewhere (a component store's, or one
// passed through) as the next entity, leaving the records' views as they
// are.
func (s *EntityStore) adopt(records []model.RecordID, links []linkEdge) {
	id := EntityID(len(s.entities))
	s.entities = append(s.entities, entity{id: id, records: records, links: links})
	for _, r := range records {
		s.entityOf[r] = id
	}
}

// EntityOf returns the entity of a record, or NoEntity for unlinked
// records.
func (s *EntityStore) EntityOf(r model.RecordID) EntityID { return s.entityOf[r] }

// Grow extends the store's record table after new records were appended to
// its data set; the new records start unlinked. It is idempotent.
func (s *EntityStore) Grow() {
	for len(s.entityOf) < len(s.d.Records) {
		s.entityOf = append(s.entityOf, NoEntity)
	}
	for len(s.ver) < len(s.d.Records) {
		s.ver = append(s.ver, 0)
	}
}

// Records returns the record ids in an entity. The slice must not be
// modified.
func (s *EntityStore) Records(e EntityID) []model.RecordID { return s.entities[e].records }

// View returns the records a hypothetical entity containing r holds: the
// record's cluster, or just the record itself when unlinked. The slice must
// not be modified.
func (s *EntityStore) View(r model.RecordID) []model.RecordID {
	if e := s.entityOf[r]; e != NoEntity {
		return s.entities[e].records
	}
	return []model.RecordID{r}
}

// Link merges the entities of two records (creating entities as needed) and
// records the link edge between them. It reports the resulting entity.
func (s *EntityStore) Link(a, b model.RecordID) EntityID {
	ea, eb := s.entityOf[a], s.entityOf[b]
	switch {
	case ea == NoEntity && eb == NoEntity:
		id := EntityID(len(s.entities))
		s.entities = append(s.entities, entity{id: id, records: []model.RecordID{a, b}})
		s.entityOf[a], s.entityOf[b] = id, id
		s.entities[id].links = append(s.entities[id].links, linkEdge{a, b})
		s.ver[a]++
		s.ver[b]++
		return id
	case ea == NoEntity:
		s.entityOf[a] = eb
		s.entities[eb].records = append(s.entities[eb].records, a)
		s.entities[eb].links = append(s.entities[eb].links, linkEdge{a, b})
		s.bumpViews(eb)
		return eb
	case eb == NoEntity:
		s.entityOf[b] = ea
		s.entities[ea].records = append(s.entities[ea].records, b)
		s.entities[ea].links = append(s.entities[ea].links, linkEdge{a, b})
		s.bumpViews(ea)
		return ea
	case ea == eb:
		// Only the link multigraph changes; the record view is untouched,
		// so similarity caches keyed on ver stay valid.
		s.entities[ea].links = append(s.entities[ea].links, linkEdge{a, b})
		return ea
	}
	// Merge the smaller entity into the larger.
	if len(s.entities[ea].records) < len(s.entities[eb].records) {
		ea, eb = eb, ea
	}
	dst, src := &s.entities[ea], &s.entities[eb]
	for _, r := range src.records {
		s.entityOf[r] = ea
	}
	dst.records = append(dst.records, src.records...)
	dst.links = append(dst.links, src.links...)
	dst.links = append(dst.links, linkEdge{a, b})
	src.records, src.links, src.dead = nil, nil, true
	s.bumpViews(ea)
	return ea
}

// Unlink removes a record from its entity, dropping its incident link
// edges. The record becomes unlinked (an implicit singleton). Entities
// reduced to one record are dissolved.
func (s *EntityStore) Unlink(r model.RecordID) {
	e := s.entityOf[r]
	if e == NoEntity {
		return
	}
	s.bumpViews(e) // every member's view shrinks, including r's
	ent := &s.entities[e]
	recs := ent.records[:0]
	for _, x := range ent.records {
		if x != r {
			recs = append(recs, x)
		}
	}
	ent.records = recs
	links := ent.links[:0]
	for _, l := range ent.links {
		if l.a != r && l.b != r {
			links = append(links, l)
		}
	}
	ent.links = links
	s.entityOf[r] = NoEntity
	if len(ent.records) == 1 {
		s.entityOf[ent.records[0]] = NoEntity
		ent.records, ent.links, ent.dead = nil, nil, true
	}
}

// replaceCluster rehomes a set of records (with the given internal links)
// into a fresh entity. Used by bridge splitting.
func (s *EntityStore) replaceCluster(records []model.RecordID, links []linkEdge) {
	if len(records) == 1 {
		s.entityOf[records[0]] = NoEntity
		s.ver[records[0]]++
		return
	}
	id := EntityID(len(s.entities))
	s.entities = append(s.entities, entity{id: id, records: records, links: links})
	for _, r := range records {
		s.entityOf[r] = id
		s.ver[r]++
	}
}

// Entities returns the ids of all live entities, sorted.
func (s *EntityStore) Entities() []EntityID {
	var out []EntityID
	for i := range s.entities {
		if !s.entities[i].dead && len(s.entities[i].records) > 0 {
			out = append(out, s.entities[i].id)
		}
	}
	return out
}

// Clusters returns the live record clusters as freshly allocated record-id
// slices, the persistable form of the clustering: internal link structure is
// dropped, so rebuilding a store from the clusters (store.Snapshot.Restore)
// yields cliques. Singleton (unlinked) records are not listed.
func (s *EntityStore) Clusters() [][]model.RecordID {
	out := make([][]model.RecordID, 0, len(s.entities))
	for i := range s.entities {
		if !s.entities[i].dead && len(s.entities[i].records) > 0 {
			out = append(out, append([]model.RecordID(nil), s.entities[i].records...))
		}
	}
	return out
}

// ValueSyms returns the distinct non-empty value symbols (with counts) of
// an attribute across the records currently in the entity of r, including
// r itself when unlinked. The resolver's propagation ranks them by count
// and compares them with depgraph.CompareValues.
func (s *EntityStore) ValueSyms(r model.RecordID, attr model.Attr) map[model.Sym]int {
	out := map[model.Sym]int{}
	for _, id := range s.View(r) {
		if v := s.d.Record(id).Sym(attr); v != 0 {
			out[v]++
		}
	}
	return out
}

// MatchPairs returns every intra-entity record pair whose roles form the
// given role pair: the pairwise closure of the clustering, which is what
// precision/recall are scored on.
func (s *EntityStore) MatchPairs(rp model.RolePair) map[model.PairKey]bool {
	out := map[model.PairKey]bool{}
	for i := range s.entities {
		ent := &s.entities[i]
		if ent.dead {
			continue
		}
		for x := 0; x < len(ent.records); x++ {
			for y := x + 1; y < len(ent.records); y++ {
				a, b := ent.records[x], ent.records[y]
				ra, rb := s.d.Record(a), s.d.Record(b)
				if model.MakeRolePair(ra.Role, rb.Role) != rp {
					continue
				}
				out[model.MakePairKey(a, b)] = true
			}
		}
	}
	return out
}

// ClusterSizes returns the live cluster size distribution, sorted
// descending; useful for diagnostics and tests.
func (s *EntityStore) ClusterSizes() []int {
	var out []int
	for i := range s.entities {
		if !s.entities[i].dead && len(s.entities[i].records) > 0 {
			out = append(out, len(s.entities[i].records))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
