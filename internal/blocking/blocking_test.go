package blocking

import (
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
)

func testDataset(t *testing.T) *model.Dataset {
	t.Helper()
	return dataset.Generate(dataset.IOS().Scaled(0.08)).Dataset
}

func allIDs(d *model.Dataset) []model.RecordID {
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	return ids
}

func TestLSHPairsCanonicalAndDeduplicated(t *testing.T) {
	d := testDataset(t)
	l := NewLSH(DefaultLSHConfig())
	pairs := l.Pairs(d, allIDs(d))
	if len(pairs) == 0 {
		t.Fatal("LSH produced no candidate pairs")
	}
	seen := map[model.PairKey]bool{}
	for _, p := range pairs {
		if p.A >= p.B {
			t.Fatalf("non-canonical pair %v", p)
		}
		k := model.MakePairKey(p.A, p.B)
		if seen[k] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[k] = true
	}
}

func TestLSHFiltersGenderAndSameCert(t *testing.T) {
	d := testDataset(t)
	l := NewLSH(DefaultLSHConfig())
	for _, p := range l.Pairs(d, allIDs(d)) {
		a, b := d.Record(p.A), d.Record(p.B)
		if !model.GenderCompatible(a, b) {
			t.Fatalf("gender-incompatible pair %v-%v survived blocking", a.Role, b.Role)
		}
		if a.Cert == b.Cert {
			t.Fatalf("same-certificate pair survived blocking: cert %d", a.Cert)
		}
	}
}

func TestLSHRecallOnTrueMatches(t *testing.T) {
	d := testDataset(t)
	l := NewLSH(DefaultLSHConfig())
	cand := map[model.PairKey]bool{}
	for _, p := range l.Pairs(d, allIDs(d)) {
		cand[model.MakePairKey(p.A, p.B)] = true
	}
	rp := model.MakeRolePair(model.Bm, model.Bm)
	truth := d.TruePairs(rp)
	if len(truth) == 0 {
		t.Skip("no true pairs in sample")
	}
	hit := 0
	for k := range truth {
		if cand[k] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(truth))
	if recall < 0.75 {
		t.Errorf("LSH pair recall on Bm-Bm truth = %.3f, want >= 0.75", recall)
	}
}

func TestLSHReductionRatio(t *testing.T) {
	d := testDataset(t)
	ids := allIDs(d)
	l := NewLSH(DefaultLSHConfig())
	pairs := l.Pairs(d, ids)
	n := len(ids)
	full := n * (n - 1) / 2
	if len(pairs) >= full/4 {
		t.Errorf("LSH blocked %d of %d possible pairs; expected at least 4x reduction", len(pairs), full)
	}
}

func TestLSHDeterministic(t *testing.T) {
	d := testDataset(t)
	l1 := NewLSH(DefaultLSHConfig())
	l2 := NewLSH(DefaultLSHConfig())
	p1 := l1.Pairs(d, allIDs(d))
	p2 := l2.Pairs(d, allIDs(d))
	if len(p1) != len(p2) {
		t.Fatalf("non-deterministic pair counts: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestLSHSimilarNamesCollide(t *testing.T) {
	d := &model.Dataset{Name: "tiny"}
	add := func(first, sur string, role model.Role, cert model.CertID) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, First: model.Intern(first), Sur: model.Intern(sur),
			Gender: model.Female, Truth: model.NoPerson,
		})
		return id
	}
	a := add("mary", "macdonald", model.Bm, 0)
	b := add("mary", "macdonald", model.Bm, 1)
	c := add("mary", "mcdonald", model.Bm, 2)
	_ = add("zebedee", "quilliam", model.Bm, 3)
	l := NewLSH(DefaultLSHConfig())
	pairs := l.Pairs(d, allIDs(d))
	has := func(x, y model.RecordID) bool {
		for _, p := range pairs {
			if model.MakePairKey(p.A, p.B) == model.MakePairKey(x, y) {
				return true
			}
		}
		return false
	}
	if !has(a, b) {
		t.Error("identical names did not collide")
	}
	if !has(a, c) {
		t.Error("near-identical names (macdonald/mcdonald) did not collide")
	}
}

func TestLSHMaxBlockSizeSkipsLargeBlocks(t *testing.T) {
	d := &model.Dataset{Name: "tiny"}
	for i := 0; i < 20; i++ {
		d.Records = append(d.Records, model.Record{
			ID: model.RecordID(i), Cert: model.CertID(i), Role: model.Bm,
			First: model.Intern("mary"), Sur: model.Intern("smith"), Gender: model.Female,
		})
	}
	cfg := DefaultLSHConfig()
	cfg.MaxBlockSize = 5
	pairs := NewLSH(cfg).Pairs(d, allIDs(d))
	if len(pairs) != 0 {
		t.Errorf("expected oversized block to be skipped, got %d pairs", len(pairs))
	}
}

func BenchmarkLSHPairs(b *testing.B) {
	d := dataset.Generate(dataset.IOS().Scaled(0.1)).Dataset
	ids := allIDs(d)
	l := NewLSH(DefaultLSHConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Pairs(d, ids)
	}
}
