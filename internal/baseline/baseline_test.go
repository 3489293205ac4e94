package baseline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/model"
)

// fixture builds a small IOS sample with blocking candidates and the
// dependency graph shared by the graph-based baselines.
type fixture struct {
	d     *model.Dataset
	cands []blocking.Candidate
	g     *depgraph.Graph
}

func newFixture(t *testing.T, scale float64) *fixture {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(scale))
	d := p.Dataset
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, ids)
	g, _ := depgraph.Build(d, depgraph.DefaultConfig(), cands)
	return &fixture{d: d, cands: cands, g: g}
}

func quality(d *model.Dataset, pred map[model.PairKey]bool, rp model.RolePair) eval.Quality {
	return eval.QualityOf(eval.Compare(pred, d.TruePairs(rp)))
}

func TestPairSimBounds(t *testing.T) {
	cfg := depgraph.DefaultConfig()
	a := &model.Record{First: model.Intern("mary"), Sur: model.Intern("smith"), Addr: model.Intern("5 uig"), Occ: model.Intern("crofter")}
	b := &model.Record{First: model.Intern("mary"), Sur: model.Intern("smith"), Addr: model.Intern("5 uig"), Occ: model.Intern("crofter")}
	if s := PairSim(cfg, a, b); s != 1 {
		t.Errorf("identical records PairSim = %v, want 1", s)
	}
	c := &model.Record{First: model.Intern("zeb"), Sur: model.Intern("quirk")}
	if s := PairSim(cfg, a, c); s > 0.5 {
		t.Errorf("dissimilar records PairSim = %v, want low", s)
	}
	empty := &model.Record{}
	if s := PairSim(cfg, a, empty); s != 0 {
		t.Errorf("no comparable attributes PairSim = %v, want 0", s)
	}
}

func TestAttrSimHighRecallLowPrecision(t *testing.T) {
	f := newFixture(t, 0.12)
	rp := model.MakeRolePair(model.Bm, model.Bm)
	pred := AttrSim(f.d, f.cands)
	// Restrict predictions to the scored role pair.
	filtered := map[model.PairKey]bool{}
	for k := range pred {
		a, b := k.Split()
		if model.MakeRolePair(f.d.Record(a).Role, f.d.Record(b).Role) == rp {
			filtered[k] = true
		}
	}
	q := quality(f.d, filtered, rp)
	if q.Recall < 60 {
		t.Errorf("Attr-Sim recall %.2f, want the paper's high-recall shape (>60)", q.Recall)
	}
	if q.Precision > 90 {
		t.Errorf("Attr-Sim precision %.2f; the paper's shape has it well below SNAPS (<90)", q.Precision)
	}
}

func TestDepGraphBaselineRuns(t *testing.T) {
	f := newFixture(t, 0.08)
	store := DepGraph(f.d, f.g)
	rp := model.MakeRolePair(model.Bm, model.Bm)
	q := quality(f.d, store.MatchPairs(rp), rp)
	if q.Recall == 0 {
		t.Error("Dep-Graph baseline linked nothing")
	}
}

func TestRelClusterBaselineRuns(t *testing.T) {
	f := newFixture(t, 0.08)
	store := RelCluster(f.d, f.g)
	rp := model.MakeRolePair(model.Bm, model.Bm)
	q := quality(f.d, store.MatchPairs(rp), rp)
	if q.Recall == 0 {
		t.Error("Rel-Cluster baseline linked nothing")
	}
}

// TestSNAPSBeatsBaselines asserts the headline shape of Table 4: SNAPS
// outperforms every unsupervised baseline on F*.
func TestSNAPSBeatsBaselines(t *testing.T) {
	f := newFixture(t, 0.25)
	rp := model.MakeRolePair(model.Bm, model.Bm)

	snaps := er.NewResolver(f.g, er.DefaultConfig()).Resolve()
	qSnaps := quality(f.d, snaps.Store.MatchPairs(rp), rp)

	// Rebuild the graph: the SNAPS resolver mutates node state.
	g2, _ := depgraph.Build(f.d, depgraph.DefaultConfig(), f.cands)
	qDep := quality(f.d, DepGraph(f.d, g2).MatchPairs(rp), rp)
	g3, _ := depgraph.Build(f.d, depgraph.DefaultConfig(), f.cands)
	qRel := quality(f.d, RelCluster(f.d, g3).MatchPairs(rp), rp)

	attrPred := AttrSim(f.d, f.cands)
	filtered := map[model.PairKey]bool{}
	for k := range attrPred {
		a, b := k.Split()
		if model.MakeRolePair(f.d.Record(a).Role, f.d.Record(b).Role) == rp {
			filtered[k] = true
		}
	}
	qAttr := quality(f.d, filtered, rp)

	t.Logf("SNAPS %v | Attr-Sim %v | Dep-Graph %v | Rel-Cluster %v", qSnaps, qAttr, qDep, qRel)
	for name, q := range map[string]eval.Quality{
		"Attr-Sim": qAttr, "Dep-Graph": qDep, "Rel-Cluster": qRel,
	} {
		if qSnaps.FStar <= q.FStar {
			t.Errorf("SNAPS F*=%.2f should beat %s F*=%.2f", qSnaps.FStar, name, q.FStar)
		}
	}
}

func TestDepGraphDeterministic(t *testing.T) {
	f := newFixture(t, 0.05)
	g2, _ := depgraph.Build(f.d, depgraph.DefaultConfig(), f.cands)
	s1 := DepGraph(f.d, f.g)
	s2 := DepGraph(f.d, g2)
	rp := model.MakeRolePair(model.Bm, model.Bm)
	m1, m2 := s1.MatchPairs(rp), s2.MatchPairs(rp)
	if len(m1) != len(m2) {
		t.Fatalf("non-deterministic: %d vs %d pairs", len(m1), len(m2))
	}
}

// clusterHash fingerprints a clustering independently of entity and record
// order: sorted record ids per cluster, clusters sorted, singletons left out.
func clusterHash(s *er.EntityStore) string {
	var parts []string
	for _, c := range s.Clusters() {
		if len(c) < 2 {
			continue
		}
		ids := append([]model.RecordID(nil), c...)
		slices.Sort(ids)
		parts = append(parts, fmt.Sprint(ids))
	}
	slices.Sort(parts)
	sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
	return hex.EncodeToString(sum[:8])
}

// pairHash fingerprints a matched pair set independently of map order.
func pairHash(pred map[model.PairKey]bool) string {
	keys := make([]model.PairKey, 0, len(pred))
	for k := range pred {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sum := sha256.Sum256([]byte(fmt.Sprint(keys)))
	return hex.EncodeToString(sum[:8])
}

// TestBaselineGoldens pins what each unsupervised baseline outputs on IOS
// and KIL: the Dep-Graph and Rel-Cluster cluster sets and the Attr-Sim
// pair set. The graph is the one the SNAPS pipeline built and resolved,
// as in the experiments' Tables 4 and 5.
func TestBaselineGoldens(t *testing.T) {
	for _, c := range []struct {
		cfg            dataset.Config
		attr, dep, rel string
	}{
		{dataset.IOS().Scaled(0.08), "abe2ba7876308e7d", "109ec32d7e0d9f93", "f6823fd5bfd5d917"},
		{dataset.KIL().Scaled(0.08), "e9aa7ddeffa293fd", "be1dbbeda71c5589", "840102a8a22d8efd"},
	} {
		d := dataset.Generate(c.cfg).Dataset
		cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, d.RecordIDs())
		g := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig()).Graph
		for _, got := range []struct{ name, hash, want string }{
			{"Attr-Sim", pairHash(AttrSim(d, cands)), c.attr},
			{"Dep-Graph", clusterHash(DepGraph(d, g)), c.dep},
			{"Rel-Cluster", clusterHash(RelCluster(d, g)), c.rel},
		} {
			if got.hash != got.want {
				t.Errorf("%s %s: hash %s, want %s", c.cfg.Name, got.name, got.hash, got.want)
			}
		}
	}
}

// TestDepGraphAddressComparison pins how Dep-Graph scores addresses: a pair
// of the records' own, geocoded addresses compares by distance, and a value
// propagated from a record's entity compares by bigrams, whatever the
// coordinates of the two records.
func TestDepGraphAddressComparison(t *testing.T) {
	d := &model.Dataset{Name: "addr"}
	add := func(addr string, lat, lon float64) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: model.CertID(id), Role: model.Bm, Gender: model.Female, Year: 1870,
			First: model.Intern("kirsty"), Sur: model.Intern("macrae"), Addr: model.Intern(addr),
			Lat: lat, Lon: lon, Truth: model.NoPerson,
		})
		return id
	}
	// Two spellings of one house, geocoded a few metres apart.
	a := add("5 portree", 57.4125, -6.1964)
	b := add("five portree rd", 57.4126, -6.1965)
	// The same spellings without coordinates.
	ua := add("5 portree", 0, 0)
	ub := add("five portree rd", 0, 0)
	// Records geocoded 25 km apart; far's entity also holds a record that
	// spells near's address the same way.
	near := add("12 uig", 57.4125, -6.1964)
	far := add("kilmore", 57.24, -5.90)
	spelled := add("12 uig", 0, 0)

	cfg := depgraph.DefaultConfig()
	store := er.NewEntityStore(d)
	score := func(x, y model.RecordID) float64 {
		return depGraphNodeSim(d, cfg, store, &depgraph.RelationalNode{A: x, B: y})
	}
	if s, _ := depgraph.CompareAttr(cfg, d.Record(ua), d.Record(ub), model.Address); s >= cfg.AtomicThreshold {
		t.Fatal("fixture: the two spellings must differ by bigrams")
	}
	geocoded, plain := score(a, b), score(ua, ub)
	if geocoded <= plain {
		t.Errorf("own geocoded addresses scored %v, no more than the same spellings without coordinates (%v): they should compare by distance", geocoded, plain)
	}
	apart := score(near, far)
	store.Link(far, spelled)
	if propagated := score(near, far); propagated <= apart {
		t.Errorf("propagated address spelled as the record's own scored %v, no more than the pair 25 km apart (%v): it should compare by bigrams", propagated, apart)
	}
}
