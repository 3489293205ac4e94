package er

import (
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/model"
)

// buildFamilyPair constructs two certificates describing the same family so
// that a clean three-node group exists: a birth (baby, mother, father) and a
// death of the baby with the same parents.
func buildFamilyPair(motherFirst1, motherFirst2 string) *model.Dataset {
	d := &model.Dataset{Name: "family"}
	add := func(role model.Role, cert model.CertID, first, sur, addr string, year int, g model.Gender, truth model.PersonID) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Addr: model.Intern(addr), Year: year, Truth: truth,
		})
		return id
	}
	b0 := add(model.Bb, 0, "torquil", "macsween", "5 uig", 1870, model.Male, 1)
	b1 := add(model.Bm, 0, motherFirst1, "macsween", "5 uig", 1870, model.Female, 2)
	b2 := add(model.Bf, 0, "ewen", "macsween", "5 uig", 1870, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: b0, model.Bm: b1, model.Bf: b2},
	})
	d0 := add(model.Dd, 1, "torquil", "macsween", "5 uig", 1872, model.Male, 1)
	d1 := add(model.Dm, 1, motherFirst2, "macsween", "5 uig", 1872, model.Female, 2)
	d2 := add(model.Df, 1, "ewen", "macsween", "5 uig", 1872, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Death, Year: 1872, Age: 2, Cause: "measles",
		Roles: map[model.Role]model.RecordID{model.Dd: d0, model.Dm: d1, model.Df: d2},
	})
	return d
}

func allCands(d *model.Dataset) []blocking.Candidate {
	var out []blocking.Candidate
	for i := range d.Records {
		for j := i + 1; j < len(d.Records); j++ {
			a, b := d.Record(d.Records[i].ID), d.Record(d.Records[j].ID)
			if a.Cert == b.Cert || !model.GenderCompatible(a, b) {
				continue
			}
			out = append(out, blocking.Candidate{A: a.ID, B: b.ID})
		}
	}
	return out
}

func resolve(d *model.Dataset, cfg Config) *Result {
	g, _ := depgraph.Build(d, depgraph.DefaultConfig(), allCands(d))
	return NewResolver(g, cfg).Resolve()
}

func TestBootstrapMergesExactFamily(t *testing.T) {
	d := buildFamilyPair("flora", "flora")
	res := resolve(d, DefaultConfig())
	// All three aligned pairs should be linked.
	for _, want := range [][2]model.RecordID{{0, 3}, {1, 4}, {2, 5}} {
		ea, eb := res.Store.EntityOf(want[0]), res.Store.EntityOf(want[1])
		if ea == NoEntity || ea != eb {
			t.Errorf("records %d and %d should share an entity", want[0], want[1])
		}
	}
}

// TestPropagatedSimRebindsSurname unit-tests PROP-A with the example of
// Sec. 4.2.1: once a woman's entity carries both her maiden and married
// surnames, a node comparing records under the two names scores through the
// best-matching value pair instead of the original mismatch.
func TestPropagatedSimRebindsSurname(t *testing.T) {
	d := &model.Dataset{Name: "prop-unit"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Year: year, Truth: model.NoPerson,
		})
		return id
	}
	// r0: birth record under maiden name smith; r1: marriage record already
	// under the married name taylor; r2: death record under taylor with a
	// slightly misspelt first name, so the Must similarity is below 1 and a
	// propagated surname bind visibly raises the weighted average.
	r0 := add(model.Bb, 0, "mary", "smith", 1850, model.Female)
	r1 := add(model.Mf, 1, "mary", "taylor", 1875, model.Female)
	r2 := add(model.Dd, 2, "marry", "taylor", 1899, model.Female)
	_ = r1
	g, _ := depgraph.Build(d, depgraph.DefaultConfig(), []blocking.Candidate{
		{A: r0, B: r2},
	})
	nid, ok := g.NodeFor(r0, r2)
	if !ok {
		t.Fatal("missing node (r0,r2)")
	}
	r := NewResolver(g, DefaultConfig())
	n := g.Node(nid)
	before := r.propagatedSim(n)
	// Link r0 with the marriage record so mary's entity carries both
	// surnames, then the surname category binds through (taylor, taylor).
	r.store.Link(r0, r1)
	after := r.propagatedSim(n)
	if after <= before {
		t.Errorf("propagation should raise s_a once the entity carries the married surname: before=%v after=%v", before, after)
	}
	if _, bound := g.AtomicSim(n, model.Surname); bound {
		t.Fatal("test setup: the original surname pair must not bind")
	}
}

// TestSurnameChangeLinksEndToEnd runs the full pipeline on Mary's three
// certificates (birth, marriage, death) plus filler population, checking
// that her maiden-name and married-name records end in one entity.
func TestSurnameChangeLinksEndToEnd(t *testing.T) {
	d := &model.Dataset{Name: "prop"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender, truth model.PersonID) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Year: year, Truth: truth,
		})
		return id
	}
	// Cert 0: Mary's birth as "mary smith" with parents.
	add(model.Bb, 0, "mary", "smith", 1850, model.Female, 1)
	add(model.Bm, 0, "flora", "smith", 1850, model.Female, 2)
	add(model.Bf, 0, "angus", "smith", 1850, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1850, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 0, model.Bm: 1, model.Bf: 2},
	})
	// Cert 1: Mary's marriage: bride "mary smith" (maiden), groom taylor,
	// with her parents as bride's parents.
	add(model.Mm, 1, "donald", "taylor", 1875, model.Male, 4)
	add(model.Mf, 1, "mary", "smith", 1875, model.Female, 1)
	add(model.Mfm, 1, "flora", "smith", 1875, model.Female, 2)
	add(model.Mff, 1, "angus", "smith", 1875, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Marriage, Year: 1875, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Mm: 3, model.Mf: 4, model.Mfm: 5, model.Mff: 6},
	})
	// Cert 2: Mary's death as "mary taylor", spouse donald taylor.
	add(model.Dd, 2, "mary", "taylor", 1899, model.Female, 1)
	add(model.Dm, 2, "flora", "smith", 1899, model.Female, 2)
	add(model.Df, 2, "angus", "smith", 1899, model.Male, 3)
	add(model.Ds, 2, "donald", "taylor", 1899, model.Male, 4)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 2, Type: model.Death, Year: 1899, Age: 49, Cause: "old age",
		Roles: map[model.Role]model.RecordID{model.Dd: 7, model.Dm: 8, model.Df: 9, model.Ds: 10},
	})
	// Filler population with distinct names so that the disambiguation
	// similarity operates at a realistic |O|.
	for i := 0; i < 120; i++ {
		cid := model.CertID(len(d.Certificates))
		first := []string{"x", "y", "z", "q", "w"}[i%5] + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "ina"
		id := add(model.Bb, cid, first, "uniq"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26)), 1850+i%40, model.Female, model.PersonID(100+i))
		d.Certificates = append(d.Certificates, model.Certificate{
			ID: cid, Type: model.Birth, Year: 1850 + i%40, Age: -1,
			Roles: map[model.Role]model.RecordID{model.Bb: id},
		})
	}

	res := resolve(d, DefaultConfig())
	// The birth baby (0, "mary smith") and the deceased (7, "mary taylor")
	// should end in one entity: the marriage certificate bridges the
	// surname change.
	e0, e7 := res.Store.EntityOf(0), res.Store.EntityOf(7)
	if e0 == NoEntity || e0 != e7 {
		t.Errorf("surname-changed records not linked: entity(0)=%d entity(7)=%d", e0, e7)
	}
}

// TestPartialMatchGroup reproduces the REL example of Sec. 4.2.4: two
// siblings' birth certificates share parents but the babies are different
// people; the parent nodes must merge and the sibling node must not.
func TestPartialMatchGroup(t *testing.T) {
	d := &model.Dataset{Name: "siblings"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender, truth model.PersonID) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Year: year, Truth: truth,
		})
		return id
	}
	// Two siblings both named after relatives with very similar names:
	// "john" and "john angus" (common historical practice after an infant
	// death, and the paper's partial-match group in miniature).
	add(model.Bb, 0, "john", "macrae", 1870, model.Male, 1)
	add(model.Bm, 0, "kirsty", "macrae", 1870, model.Female, 2)
	add(model.Bf, 0, "hector", "macrae", 1870, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 0, model.Bm: 1, model.Bf: 2},
	})
	add(model.Bb, 1, "john", "macrae", 1873, model.Male, 4)
	add(model.Bm, 1, "kirsty", "macrae", 1873, model.Female, 2)
	add(model.Bf, 1, "hector", "macrae", 1873, model.Male, 3)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Birth, Year: 1873, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 3, model.Bm: 4, model.Bf: 5},
	})

	res := resolve(d, DefaultConfig())
	// Parents must be linked.
	if e := res.Store.EntityOf(1); e == NoEntity || e != res.Store.EntityOf(4) {
		t.Error("mothers should be linked")
	}
	if e := res.Store.EntityOf(2); e == NoEntity || e != res.Store.EntityOf(5) {
		t.Error("fathers should be linked")
	}
	// The siblings (two Bb records) must never be linked: a person has one
	// birth certificate.
	if e := res.Store.EntityOf(0); e != NoEntity && e == res.Store.EntityOf(3) {
		t.Error("siblings wrongly linked")
	}
}

func TestAblationSwitchesChangeBehaviour(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.12))
	d := p.Dataset
	rp := model.MakeRolePair(model.Bm, model.Bm)
	truth := d.TruePairs(rp)
	run := func(mod func(*Config)) eval.Quality {
		cfg := DefaultConfig()
		mod(&cfg)
		pr := Run(d, depgraph.DefaultConfig(), cfg)
		return eval.QualityOf(eval.Compare(pr.Result.Store.MatchPairs(rp), truth))
	}
	full := run(func(c *Config) {})
	noRel := run(func(c *Config) { c.Relations = false })
	noAmb := run(func(c *Config) { c.Ambiguity = false })
	if full.FStar == 0 {
		t.Fatal("full config produced no quality")
	}
	// Without REL, partial-match groups veto merges: recall must drop.
	if noRel.Recall >= full.Recall {
		t.Errorf("removing REL should reduce recall: full R=%.2f, noREL R=%.2f", full.Recall, noRel.Recall)
	}
	// Without AMB, common-name coincidences are no longer suppressed:
	// precision must not rise.
	if noAmb.Precision > full.Precision {
		t.Errorf("removing AMB should not improve precision: full P=%.2f, noAMB P=%.2f",
			full.Precision, noAmb.Precision)
	}
}

func TestResolverDeterministic(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	r1 := Run(p.Dataset, depgraph.DefaultConfig(), DefaultConfig())
	r2 := Run(p.Dataset, depgraph.DefaultConfig(), DefaultConfig())
	rp := model.MakeRolePair(model.Bm, model.Bm)
	m1, m2 := r1.Result.Store.MatchPairs(rp), r2.Result.Store.MatchPairs(rp)
	if len(m1) != len(m2) {
		t.Fatalf("non-deterministic match counts: %d vs %d", len(m1), len(m2))
	}
	for k := range m1 {
		if !m2[k] {
			t.Fatal("match sets differ between identical runs")
		}
	}
}

func TestEndToEndQualityIOS(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.25))
	pr := Run(p.Dataset, depgraph.DefaultConfig(), DefaultConfig())
	rp := model.MakeRolePair(model.Bm, model.Bm)
	q := eval.QualityOf(eval.Compare(pr.Result.Store.MatchPairs(rp), p.Dataset.TruePairs(rp)))
	if q.Precision < 90 {
		t.Errorf("IOS Bm-Bm precision %.2f, want >= 90 (paper shape: ~99)", q.Precision)
	}
	if q.Recall < 70 {
		t.Errorf("IOS Bm-Bm recall %.2f, want >= 70 (paper shape: ~95)", q.Recall)
	}
}

func TestDisambiguationSimMonotone(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	d := p.Dataset
	g, _ := depgraph.Build(d, depgraph.DefaultConfig(), allCands(d)[:0])
	r := NewResolver(g, DefaultConfig())
	// Craft two nodes: one with a very common name combination, one rare.
	common, rare := -1, -1
	freq := map[nameComboKey]int{}
	for i := range d.Records {
		freq[nameCombo(&d.Records[i])]++
	}
	for i := range d.Records {
		f := freq[nameCombo(&d.Records[i])]
		if f > 20 && common < 0 {
			common = i
		}
		if f == 1 && rare < 0 {
			rare = i
		}
	}
	if common < 0 || rare < 0 {
		t.Skip("sample lacks required name frequencies")
	}
	nCommon := &depgraph.RelationalNode{A: model.RecordID(common), B: model.RecordID(common)}
	nRare := &depgraph.RelationalNode{A: model.RecordID(rare), B: model.RecordID(rare)}
	if r.disambiguationSim(nRare) <= r.disambiguationSim(nCommon) {
		t.Errorf("rare names must score higher disambiguation: rare=%v common=%v",
			r.disambiguationSim(nRare), r.disambiguationSim(nCommon))
	}
}

func TestMergedNodeCountsReported(t *testing.T) {
	d := buildFamilyPair("flora", "flora")
	res := resolve(d, DefaultConfig())
	if res.MergedNodes == 0 {
		t.Fatal("expected merged nodes to be counted")
	}
	if res.Timings.Bootstrap < 0 || res.Timings.Merge < 0 {
		t.Fatal("negative timings")
	}
}
