package er

import (
	"reflect"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
)

// TestExtendLinksNewCertificate resolves a base data set, appends a new
// death certificate for a known family, and checks that Extend links the
// new records into the existing entities without disturbing them.
func TestExtendLinksNewCertificate(t *testing.T) {
	d := &model.Dataset{Name: "incremental"}
	add := func(role model.Role, cert model.CertID, first, sur, addr string, year int, g model.Gender, truth model.PersonID) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Addr: model.Intern(addr), Year: year, Truth: truth,
		})
		return id
	}
	// Base: two birth certificates of one family.
	add(model.Bb, 0, "torquil", "macsween", "5 uig", 1870, model.Male, 1)
	add(model.Bm, 0, "flora", "macsween", "5 uig", 1870, model.Female, 2)
	add(model.Bf, 0, "ewen", "macsween", "5 uig", 1870, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 0, model.Bm: 1, model.Bf: 2},
	})
	add(model.Bb, 1, "una", "macsween", "5 uig", 1872, model.Female, 4)
	add(model.Bm, 1, "flora", "macsween", "5 uig", 1872, model.Female, 2)
	add(model.Bf, 1, "ewen", "macsween", "5 uig", 1872, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Birth, Year: 1872, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 3, model.Bm: 4, model.Bf: 5},
	})

	base := Run(d, depgraph.DefaultConfig(), DefaultConfig())
	store := base.Result.Store
	if e := store.EntityOf(1); e == NoEntity || e != store.EntityOf(4) {
		t.Fatal("base resolution should link the mothers")
	}
	motherEntity := store.EntityOf(1)
	baseMotherRecords := len(store.Records(motherEntity))

	// New: the death certificate of the first child.
	firstNew := model.RecordID(len(d.Records))
	add(model.Dd, 2, "torquil", "macsween", "5 uig", 1875, model.Male, 1)
	add(model.Dm, 2, "flora", "macsween", "5 uig", 1875, model.Female, 2)
	add(model.Df, 2, "ewen", "macsween", "5 uig", 1875, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 2, Type: model.Death, Year: 1875, Age: 5, Cause: "measles",
		Roles: map[model.Role]model.RecordID{model.Dd: firstNew, model.Dm: firstNew + 1, model.Df: firstNew + 2},
	})

	pr := Extend(d, store, firstNew, depgraph.DefaultConfig(), DefaultConfig())
	if pr.Result.Store != store {
		t.Fatal("Extend must resolve into the provided store")
	}
	// The new Dm record joins the mother's entity.
	if e := store.EntityOf(firstNew + 1); e != store.EntityOf(1) {
		t.Errorf("new Dm record in entity %d, want mother entity %d", e, store.EntityOf(1))
	}
	// The new Dd record joins the first baby's entity.
	if e := store.EntityOf(firstNew); e == NoEntity || e != store.EntityOf(0) {
		t.Errorf("new Dd record not linked to the baby: %d vs %d", e, store.EntityOf(0))
	}
	// The mother entity grew by exactly the one new record.
	if got := len(store.Records(store.EntityOf(1))); got != baseMotherRecords+1 {
		t.Errorf("mother entity has %d records, want %d", got, baseMotherRecords+1)
	}
}

// TestExtendOnlyBlocksNewPairs checks that the delta graph contains no
// node between two old records.
func TestExtendOnlyBlocksNewPairs(t *testing.T) {
	d := &model.Dataset{Name: "delta"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Year: year, Truth: model.NoPerson,
		})
		return id
	}
	for i := 0; i < 6; i++ {
		cid := model.CertID(i)
		rid := add(model.Bm, cid, "mary", "macrae", 1870+i, model.Female)
		d.Certificates = append(d.Certificates, model.Certificate{
			ID: cid, Type: model.Birth, Year: 1870 + i, Age: -1,
			Roles: map[model.Role]model.RecordID{model.Bm: rid},
		})
	}
	store := NewEntityStore(d)
	firstNew := model.RecordID(4)
	pr := Extend(d, store, firstNew, depgraph.DefaultConfig(), DefaultConfig())
	for i := range pr.Graph.Nodes {
		n := &pr.Graph.Nodes[i]
		if n.A < firstNew && n.B < firstNew {
			t.Fatalf("delta graph contains old-old node (%d,%d)", n.A, n.B)
		}
	}
}

// TestExtendStreamedMatchesMaterialised locks the streamed Extend to the
// materialised pipeline it replaced: filter the full candidate list to the
// pairs whose B is a new record, build the graph from that slice, resolve
// from the restored clusters. Same candidate count, same node sequence and
// group membership, same clusters.
func TestExtendStreamedMatchesMaterialised(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *model.Dataset
		lcfg blocking.LSHConfig
	}{
		{"ios-0.04", dataset.Generate(dataset.IOS().Scaled(0.04)).Dataset, blocking.DefaultLSHConfig()},
		{"ds-3k", dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset, blocking.ScaleLSHConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gcfg, cfg := depgraph.DefaultConfig(), DefaultConfig()
			clusters := RunLSH(tc.d, tc.lcfg, gcfg, cfg).Result.Store.Clusters()
			firstNew := model.RecordID(len(tc.d.Records) * 9 / 10)

			d := tc.d.Clone()
			var cands []blocking.Candidate
			for _, c := range blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, d.RecordIDs()) {
				if c.B >= firstNew {
					cands = append(cands, c)
				}
			}
			if len(cands) == 0 {
				t.Fatal("no candidate touches a new record")
			}
			wantG, _ := depgraph.Build(d, gcfg, cands)
			ref := NewResolver(wantG, cfg)
			ref.store = restoreForTest(d, clusters, firstNew)
			want := canonicalClusters(ref.Resolve().Store.Clusters())

			d = tc.d.Clone()
			st := restoreForTest(d, clusters, firstNew)
			pr := Extend(d, st, firstNew, gcfg, cfg)
			if pr.Candidates != len(cands) {
				t.Fatalf("Extend streamed %d candidates, the filtered list has %d", pr.Candidates, len(cands))
			}
			if len(pr.Graph.Nodes) != len(wantG.Nodes) {
				t.Fatalf("Extend built %d nodes, materialised build %d", len(pr.Graph.Nodes), len(wantG.Nodes))
			}
			for i := range wantG.Nodes {
				g, w := &pr.Graph.Nodes[i], &wantG.Nodes[i]
				if g.A != w.A || g.B != w.B || g.Group != w.Group {
					t.Fatalf("node %d = (%d,%d) group %d, materialised (%d,%d) group %d", i, g.A, g.B, g.Group, w.A, w.B, w.Group)
				}
			}
			if !reflect.DeepEqual(pr.Graph.Groups, wantG.Groups) {
				t.Fatalf("group membership differs (%d vs %d groups)", len(pr.Graph.Groups), len(wantG.Groups))
			}
			if got := canonicalClusters(st.Clusters()); got != want {
				t.Fatalf("clusters differ\nmaterialised:\n%s\nstreamed:\n%s", head(want, 20), head(got, 20))
			}
		})
	}
}

// TestExtendCountsCappedBlocksOfTheBatchOnly: a flush adds to the
// capped-block counters the blocks over the cap that hold one of its new
// records, and no others — a batch that joins no capped block leaves both
// counters where the corpus left them.
func TestExtendCountsCappedBlocksOfTheBatchOnly(t *testing.T) {
	d := &model.Dataset{Name: "capped"}
	add := func(first, sur string) {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: model.CertID(id), Role: model.Bm, Gender: model.Female,
			First: model.Intern(first), Sur: model.Intern(sur), Year: 1870, Truth: model.NoPerson,
		})
	}
	lcfg := blocking.DefaultLSHConfig()
	for i := 0; i <= lcfg.MaxBlockSize; i++ {
		add("mary", "smith")
	}
	counters := func() (blocks, records int64) {
		return obs.Default.Counter("snaps_blocking_capped_blocks_total", "").Value(),
			obs.Default.Counter("snaps_blocking_capped_records_total", "").Value()
	}
	b0, r0 := counters()
	st := Run(d, depgraph.DefaultConfig(), DefaultConfig()).Result.Store
	if b, _ := counters(); b == b0 {
		t.Fatal("the corpus build capped no block; the fixture does not exercise the cap")
	}

	firstNew := model.RecordID(len(d.Records))
	add("torquil", "macsween")
	b0, r0 = counters()
	Extend(d, st, firstNew, depgraph.DefaultConfig(), DefaultConfig())
	if b, r := counters(); b != b0 || r != r0 {
		t.Fatalf("a batch joining no capped block moved the counters by %d blocks / %d records", b-b0, r-r0)
	}

	// One more mary smith joins the capped block of every band of both
	// passes, each now holding every mary smith.
	firstNew = model.RecordID(len(d.Records))
	add("mary", "smith")
	b0, r0 = counters()
	Extend(d, st, firstNew, depgraph.DefaultConfig(), DefaultConfig())
	wantBlocks := int64(2 * lcfg.Bands)
	if b, r := counters(); b-b0 != wantBlocks || r-r0 != wantBlocks*int64(lcfg.MaxBlockSize+2) {
		t.Fatalf("counters moved by %d blocks / %d records, want %d / %d",
			b-b0, r-r0, wantBlocks, wantBlocks*int64(lcfg.MaxBlockSize+2))
	}
}
