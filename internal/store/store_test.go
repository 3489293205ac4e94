package store

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

func resolvedSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	return FromResult(p.Dataset, pr.Result.Store)
}

func TestRoundTrip(t *testing.T) {
	snap := resolvedSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset.Name != snap.Dataset.Name {
		t.Errorf("name %q vs %q", got.Dataset.Name, snap.Dataset.Name)
	}
	if len(got.Dataset.Records) != len(snap.Dataset.Records) {
		t.Fatalf("records %d vs %d", len(got.Dataset.Records), len(snap.Dataset.Records))
	}
	for i := range snap.Dataset.Records {
		if got.Dataset.Records[i] != snap.Dataset.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if len(got.Clusters) != len(snap.Clusters) {
		t.Fatalf("clusters %d vs %d", len(got.Clusters), len(snap.Clusters))
	}
	if len(got.Dataset.Certificates) != len(snap.Dataset.Certificates) {
		t.Fatalf("certificates differ")
	}
	for i := range snap.Dataset.Certificates {
		a, b := &snap.Dataset.Certificates[i], &got.Dataset.Certificates[i]
		if a.ID != b.ID || a.Type != b.Type || a.Year != b.Year || a.Cause != b.Cause || a.Age != b.Age {
			t.Fatalf("certificate %d scalar fields differ", i)
		}
		if len(a.Roles) != len(b.Roles) {
			t.Fatalf("certificate %d roles differ", i)
		}
		for role, rec := range a.Roles {
			if b.Roles[role] != rec {
				t.Fatalf("certificate %d role %v differs", i, role)
			}
		}
	}
}

func TestRestorePreservesMatchPairs(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	snap := FromResult(p.Dataset, pr.Result.Store)

	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := got.Restore()
	rp := model.MakeRolePair(model.Bm, model.Bm)
	orig := pr.Result.Store.MatchPairs(rp)
	after := restored.MatchPairs(rp)
	if len(orig) != len(after) {
		t.Fatalf("match pairs %d vs %d after restore", len(orig), len(after))
	}
	for k := range orig {
		if !after[k] {
			t.Fatal("restored clustering lost a pair")
		}
	}
}

func TestPedigreeGraphFromSnapshot(t *testing.T) {
	snap := resolvedSnapshot(t)
	g := pedigree.Build(snap.Dataset, snap.Restore())
	if len(g.Nodes) == 0 {
		t.Fatal("empty pedigree graph from snapshot")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTSNAPSxxxx"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	snap := resolvedSnapshot(t)
	// Point a cluster at an out-of-range record.
	bad := &Snapshot{
		Dataset:  snap.Dataset,
		Clusters: [][]model.RecordID{{0, model.RecordID(len(snap.Dataset.Records) + 5)}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("out-of-range cluster accepted")
	}

	// Overlapping clusters.
	bad = &Snapshot{
		Dataset:  snap.Dataset,
		Clusters: [][]model.RecordID{{0, 1}, {1, 2}},
	}
	buf.Reset()
	if err := Write(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("overlapping clusters accepted")
	}
}

// TestWriteRefusesOverlongString pins that the writer and the reader agree
// on the string bound: a record whose name is one byte over it is refused at
// Write, not written into a snapshot that Read then rejects.
func TestWriteRefusesOverlongString(t *testing.T) {
	d := &model.Dataset{Name: "overlong", Records: []model.Record{{
		First: model.Intern(strings.Repeat("a", maxStringLen+1)), Sur: model.Intern("macleod"),
		Truth: model.NoPerson,
	}}}
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Dataset: d}); err == nil {
		_, rerr := Read(&buf)
		t.Fatalf("Write accepted a %d-byte name (Read then says: %v)", maxStringLen+1, rerr)
	}
	// At the bound itself both sides accept it.
	d.Records[0].First = model.Intern(strings.Repeat("a", maxStringLen))
	buf.Reset()
	if err := Write(&buf, &Snapshot{Dataset: d}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	snap := resolvedSnapshot(t)
	path := filepath.Join(t.TempDir(), "snapshot.snaps")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(snap.Clusters) {
		t.Fatalf("clusters %d vs %d", len(got.Clusters), len(snap.Clusters))
	}
}

// TestSnapshotRoundTripAfterExtend grows a resolved store with er.Extend
// (the live-ingestion path) and checks that the clusters created after
// Grow() survive Save/Load and come back as cliques.
func TestSnapshotRoundTripAfterExtend(t *testing.T) {
	d := &model.Dataset{Name: "extend-roundtrip"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Addr: model.Intern("5 uig"), Year: year,
			Truth: model.NoPerson,
		})
		return id
	}
	add(model.Bb, 0, "torquil", "macsween", 1870, model.Male)
	add(model.Bm, 0, "flora", "macsween", 1870, model.Female)
	add(model.Bf, 0, "ewen", "macsween", 1870, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 0, model.Bm: 1, model.Bf: 2},
	})
	add(model.Bb, 1, "una", "macsween", 1872, model.Female)
	add(model.Bm, 1, "flora", "macsween", 1872, model.Female)
	add(model.Bf, 1, "ewen", "macsween", 1872, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Birth, Year: 1872, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 3, model.Bm: 4, model.Bf: 5},
	})

	base := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	st := base.Result.Store

	firstNew := model.RecordID(len(d.Records))
	add(model.Dd, 2, "torquil", "macsween", 1875, model.Male)
	add(model.Dm, 2, "flora", "macsween", 1875, model.Female)
	add(model.Df, 2, "ewen", "macsween", 1875, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 2, Type: model.Death, Year: 1875, Age: 5, Cause: "measles",
		Roles: map[model.Role]model.RecordID{
			model.Dd: firstNew, model.Dm: firstNew + 1, model.Df: firstNew + 2,
		},
	})
	er.Extend(d, st, firstNew, depgraph.DefaultConfig(), er.DefaultConfig())
	if st.EntityOf(firstNew) == er.NoEntity {
		t.Fatal("Extend did not cluster the new death record")
	}

	snap := FromResult(d, st)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := got.Restore()

	// The Extend-created links survive the round trip.
	together := func(s *er.EntityStore, a, b model.RecordID) bool {
		return s.EntityOf(a) != er.NoEntity && s.EntityOf(a) == s.EntityOf(b)
	}
	for _, pair := range [][2]model.RecordID{
		{0, firstNew},     // baby + deceased
		{1, firstNew + 1}, // birth mother + death mother
		{2, firstNew + 2}, // birth father + death father
		{1, 4}, {2, 5},    // original cross-certificate links
	} {
		if !together(st, pair[0], pair[1]) {
			t.Fatalf("records %d and %d not co-clustered before save", pair[0], pair[1])
		}
		if !together(restored, pair[0], pair[1]) {
			t.Errorf("records %d and %d not co-clustered after restore", pair[0], pair[1])
		}
	}
	if len(restored.Entities()) != len(st.Entities()) {
		t.Errorf("entity count %d after restore, want %d",
			len(restored.Entities()), len(st.Entities()))
	}

	// Restored clusters are cliques: a refinement pass cannot peel them.
	removed, splits := restored.Refine(0.3, 15)
	if removed != 0 || splits != 0 {
		t.Errorf("refine peeled restored Extend clusters: removed=%d splits=%d", removed, splits)
	}
}

func TestRestoredClustersSurviveRefine(t *testing.T) {
	// Persisted clusters passed refinement before saving; a REF pass over a
	// restored store (e.g. during incremental resolution) must not peel
	// them apart.
	snap := resolvedSnapshot(t)
	restored := snap.Restore()
	before := len(restored.Entities())
	removed, splits := restored.Refine(0.3, 15)
	if removed != 0 || splits != 0 {
		t.Fatalf("refine dismantled restored clusters: removed=%d splits=%d", removed, splits)
	}
	if len(restored.Entities()) != before {
		t.Fatal("entity count changed")
	}
}
