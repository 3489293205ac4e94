package baseline

import (
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
	pred := NewAttrSim().Match(f.d, f.cands)
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
	store := NewDepGraph().Resolve(f.d, f.g)
	rp := model.MakeRolePair(model.Bm, model.Bm)
	q := quality(f.d, store.MatchPairs(rp), rp)
	if q.Recall == 0 {
		t.Error("Dep-Graph baseline linked nothing")
	}
}

func TestRelClusterBaselineRuns(t *testing.T) {
	f := newFixture(t, 0.08)
	store := NewRelCluster().Resolve(f.d, f.g)
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
	qDep := quality(f.d, NewDepGraph().Resolve(f.d, g2).MatchPairs(rp), rp)
	g3, _ := depgraph.Build(f.d, depgraph.DefaultConfig(), f.cands)
	qRel := quality(f.d, NewRelCluster().Resolve(f.d, g3).MatchPairs(rp), rp)

	attrPred := NewAttrSim().Match(f.d, f.cands)
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
	s1 := NewDepGraph().Resolve(f.d, f.g)
	s2 := NewDepGraph().Resolve(f.d, g2)
	rp := model.MakeRolePair(model.Bm, model.Bm)
	m1, m2 := s1.MatchPairs(rp), s2.MatchPairs(rp)
	if len(m1) != len(m2) {
		t.Fatalf("non-deterministic: %d vs %d pairs", len(m1), len(m2))
	}
}
