package er

import (
	"testing"

	"github.com/snaps/snaps/internal/model"
)

func tinyDataset(n int) *model.Dataset {
	d := &model.Dataset{Name: "tiny"}
	for i := 0; i < n; i++ {
		d.Records = append(d.Records, model.Record{
			ID: model.RecordID(i), Cert: model.CertID(i), Role: model.Bm,
			First: model.Intern("mary"), Sur: model.Intern("smith"), Year: 1870 + i,
			Gender: model.Female, Truth: model.NoPerson,
		})
	}
	return d
}

func TestEntityStoreLinkBasics(t *testing.T) {
	s := NewEntityStore(tinyDataset(4))
	if s.EntityOf(0) != NoEntity {
		t.Fatal("fresh record should be unlinked")
	}
	e := s.Link(0, 1)
	if s.EntityOf(0) != e || s.EntityOf(1) != e {
		t.Fatal("both records should join the new entity")
	}
	if got := len(s.Records(e)); got != 2 {
		t.Fatalf("entity has %d records, want 2", got)
	}
	// Linking into an existing entity.
	e2 := s.Link(1, 2)
	if e2 != e {
		t.Fatalf("expected extension of entity %d, got %d", e, e2)
	}
	if s.EntityOf(2) != e {
		t.Fatal("record 2 should join entity")
	}
}

func TestEntityStoreMergeTwoEntities(t *testing.T) {
	s := NewEntityStore(tinyDataset(6))
	ea := s.Link(0, 1)
	eb := s.Link(2, 3)
	if ea == eb {
		t.Fatal("distinct links should create distinct entities")
	}
	em := s.Link(1, 2)
	for _, r := range []model.RecordID{0, 1, 2, 3} {
		if s.EntityOf(r) != em {
			t.Fatalf("record %d not in merged entity", r)
		}
	}
	if got := len(s.Records(em)); got != 4 {
		t.Fatalf("merged entity has %d records, want 4", got)
	}
	live := s.Entities()
	if len(live) != 1 {
		t.Fatalf("expected 1 live entity, got %d", len(live))
	}
}

func TestEntityStoreSelfLinkAddsEdgeOnly(t *testing.T) {
	s := NewEntityStore(tinyDataset(3))
	e := s.Link(0, 1)
	s.Link(1, 2)
	before := len(s.Records(e))
	s.Link(0, 2) // already same entity
	if len(s.Records(e)) != before {
		t.Fatal("intra-entity link must not duplicate records")
	}
}

func TestEntityStoreUnlink(t *testing.T) {
	s := NewEntityStore(tinyDataset(4))
	e := s.Link(0, 1)
	s.Link(1, 2)
	s.Unlink(1)
	if s.EntityOf(1) != NoEntity {
		t.Fatal("unlinked record should have no entity")
	}
	recs := s.Records(e)
	if len(recs) != 2 {
		t.Fatalf("entity should retain 2 records, got %d", len(recs))
	}
	// Unlinking down to one record dissolves the entity.
	s.Unlink(0)
	if s.EntityOf(2) != NoEntity {
		t.Fatal("singleton remnant should be dissolved")
	}
	if len(s.Entities()) != 0 {
		t.Fatalf("expected no live entities, got %v", s.Entities())
	}
}

func TestEntityStoreValues(t *testing.T) {
	d := tinyDataset(3)
	d.Records[1].Sur = model.Intern("taylor")
	s := NewEntityStore(d)
	s.Link(0, 1)
	smith, taylor := model.Intern("smith"), model.Intern("taylor")
	vals := s.ValueSyms(0, model.Surname)
	if len(vals) != 2 || vals[smith] != 1 || vals[taylor] != 1 {
		t.Fatalf("entity surname values = %v", vals)
	}
	// Unlinked record sees only its own value.
	vals = s.ValueSyms(2, model.Surname)
	if len(vals) != 1 || vals[smith] != 1 {
		t.Fatalf("singleton values = %v", vals)
	}
}

func TestMatchPairsClosure(t *testing.T) {
	d := tinyDataset(3)
	s := NewEntityStore(d)
	s.Link(0, 1)
	s.Link(1, 2)
	pairs := s.MatchPairs(model.MakeRolePair(model.Bm, model.Bm))
	// Transitive closure: 3 records -> 3 pairs, including the unlinked
	// (0,2) pair.
	if len(pairs) != 3 {
		t.Fatalf("closure pairs = %d, want 3", len(pairs))
	}
	if !pairs[model.MakePairKey(0, 2)] {
		t.Fatal("closure must include the transitive pair (0,2)")
	}
}

func TestMatchPairsRoleFilter(t *testing.T) {
	d := tinyDataset(3)
	d.Records[2].Role = model.Dm
	s := NewEntityStore(d)
	s.Link(0, 1)
	s.Link(1, 2)
	bmbm := s.MatchPairs(model.MakeRolePair(model.Bm, model.Bm))
	if len(bmbm) != 1 {
		t.Fatalf("Bm-Bm pairs = %d, want 1", len(bmbm))
	}
	bmdm := s.MatchPairs(model.MakeRolePair(model.Bm, model.Dm))
	if len(bmdm) != 2 {
		t.Fatalf("Bm-Dm pairs = %d, want 2", len(bmdm))
	}
}

func TestClusterSizesSorted(t *testing.T) {
	s := NewEntityStore(tinyDataset(7))
	s.Link(0, 1)
	s.Link(1, 2)
	s.Link(3, 4)
	sizes := s.ClusterSizes()
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("cluster sizes = %v, want [3 2]", sizes)
	}
}
