package constraint

import (
	"testing"

	"github.com/snaps/snaps/internal/model"
)

func rec(id model.RecordID, role model.Role, year int, cert model.CertID) model.Record {
	return model.Record{ID: id, Role: role, Year: year, Cert: cert, Gender: model.RoleGender(role)}
}

func TestBirthYearInterval(t *testing.T) {
	r := rec(0, model.Bb, 1870, 0)
	lo, hi := BirthYearInterval(&r)
	if lo != 1870 || hi != 1870 {
		t.Errorf("Bb interval = [%d,%d], want [1870,1870]", lo, hi)
	}
	r = rec(1, model.Bm, 1870, 0)
	lo, hi = BirthYearInterval(&r)
	if lo != 1870-55 || hi != 1870-15 {
		t.Errorf("Bm interval = [%d,%d], want [1815,1855]", lo, hi)
	}
	r = rec(2, model.Bb, 0, 0)
	lo, hi = BirthYearInterval(&r)
	if lo >= hi || lo > -1000000 || hi < 1000000 {
		t.Errorf("missing year should be unbounded, got [%d,%d]", lo, hi)
	}
}

func TestTemporalCompatibleBbToBm(t *testing.T) {
	// The paper's example: a birth baby becoming a birth mother must be
	// 15-55 years later.
	baby := rec(0, model.Bb, 1870, 0)
	cases := []struct {
		motherYear int
		want       bool
	}{
		{1884, false}, // 14 years: too young
		{1885, true},  // 15 years: minimum
		{1900, true},
		{1925, true},  // 55 years: maximum
		{1926, false}, // 56 years: too old
		{1860, false}, // before her own birth
	}
	for _, c := range cases {
		mother := rec(1, model.Bm, c.motherYear, 1)
		if got := TemporalCompatible(&baby, &mother); got != c.want {
			t.Errorf("Bb(1870) vs Bm(%d) = %v, want %v", c.motherYear, got, c.want)
		}
		// Symmetry.
		if got := TemporalCompatible(&mother, &baby); got != c.want {
			t.Errorf("Bm(%d) vs Bb(1870) = %v, want %v (symmetric)", c.motherYear, got, c.want)
		}
	}
}

func TestTemporalDeathCaps(t *testing.T) {
	dd := rec(0, model.Dd, 1880, 0)
	// A marriage after death is impossible.
	mm := rec(1, model.Mm, 1885, 1)
	if TemporalCompatible(&dd, &mm) {
		t.Error("marriage 5 years after death should be incompatible")
	}
	// A birth mother record after death is impossible.
	bm := rec(2, model.Bm, 1881, 2)
	if TemporalCompatible(&dd, &bm) {
		t.Error("giving birth after death should be incompatible")
	}
	// A parent mention on a death certificate may postdate death.
	dm := rec(3, model.Dm, 1900, 3)
	if !TemporalCompatible(&dd, &dm) {
		t.Error("being mentioned as mother of a deceased after one's own death must be allowed")
	}
	// A posthumous father is allowed up to one year after death.
	bf := rec(4, model.Bf, 1881, 4)
	if !TemporalCompatible(&dd, &bf) {
		t.Error("posthumous father within a year should be allowed")
	}
	bfLate := rec(5, model.Bf, 1883, 5)
	if TemporalCompatible(&dd, &bfLate) {
		t.Error("father on a birth 3 years after death should be incompatible")
	}
}

func TestTemporalBirthFloor(t *testing.T) {
	bb := rec(0, model.Bb, 1870, 0)
	ds := rec(1, model.Ds, 1860, 1)
	if TemporalCompatible(&bb, &ds) {
		t.Error("appearing as a spouse before one's own birth should be incompatible")
	}
}

func TestPairOKUniqueRoles(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		rec(0, model.Bb, 1870, 0),
		rec(1, model.Bb, 1872, 1),
		rec(2, model.Dd, 1890, 2),
		rec(3, model.Dd, 1891, 3),
		rec(4, model.Bm, 1895, 4),
	}}
	v := NewValidator(d)
	if v.PairOK(0, 1) {
		t.Error("two Bb records can never be one person (one birth certificate each)")
	}
	if v.PairOK(2, 3) {
		t.Error("two Dd records can never be one person")
	}
	if !v.PairOK(0, 2) {
		t.Error("Bb(1870) and Dd(1890) should be compatible")
	}
}

func TestPairOKSameCert(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		rec(0, model.Bm, 1870, 7),
		rec(1, model.Bb, 1870, 7),
	}}
	d.Records[1].Gender = model.Female
	v := NewValidator(d)
	if v.PairOK(0, 1) {
		t.Error("two roles on the same certificate are different people")
	}
}

func TestPairOKGender(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		rec(0, model.Bm, 1870, 0), // implies female
		rec(1, model.Df, 1890, 1), // implies male
		rec(2, model.Dd, 1890, 2), // unknown gender
	}}
	v := NewValidator(d)
	if v.PairOK(0, 1) {
		t.Error("a mother cannot be a father")
	}
	if !v.PairOK(0, 2) {
		t.Error("a mother can be an unknown-gender deceased")
	}
}

func TestMergeOK(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		rec(0, model.Bb, 1870, 0),
		rec(1, model.Dd, 1890, 1),
		rec(2, model.Bb, 1875, 2),
		rec(3, model.Bm, 1895, 3),
	}}
	v := NewValidator(d)
	// Entities {0,1} and {3}: compatible (born 1870, died 1890? no: Bm 1895
	// after death 1890 -> incompatible).
	if v.MergeOK([]model.RecordID{0, 1}, []model.RecordID{3}) {
		t.Error("entity with death 1890 cannot merge with Bm record from 1895")
	}
	// Entities {0} and {3}: baby born 1870, mother in 1895 (age 25): fine.
	if !v.MergeOK([]model.RecordID{0}, []model.RecordID{3}) {
		t.Error("Bb 1870 + Bm 1895 should merge")
	}
	// Entities {0,1} and {2}: two birth records -> violation.
	if v.MergeOK([]model.RecordID{0, 1}, []model.RecordID{2}) {
		t.Error("two Bb records across entities must block the merge")
	}
}

func TestBoundsTable(t *testing.T) {
	for r := model.Role(0); r < model.NumRoles; r++ {
		b := Bounds(r)
		if b.Min < 0 || b.Max < b.Min {
			t.Errorf("role %v has invalid bounds %+v", r, b)
		}
	}
	if b := Bounds(model.Bb); b.Min != 0 || b.Max != 0 {
		t.Errorf("Bb bounds = %+v, want {0,0}", b)
	}
}

func TestBuildOKAdmitsSiblingWindow(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		rec(0, model.Bb, 1870, 0),
		rec(1, model.Bb, 1875, 1), // potential sibling: 5 years apart
		rec(2, model.Bb, 1905, 2), // 35 years apart: beyond the window
		rec(3, model.Dd, 1890, 3),
		rec(4, model.Dd, 1893, 4),
	}}
	v := NewValidator(d)
	if !v.BuildOK(0, 1) {
		t.Error("sibling-window Bb-Bb pair should enter the graph")
	}
	if v.BuildOK(0, 2) {
		t.Error("Bb-Bb pair a generation apart should be filtered")
	}
	if !v.BuildOK(3, 4) {
		t.Error("Dd-Dd pair within window should enter the graph")
	}
	// PairOK still forbids them from ever merging.
	if v.PairOK(0, 1) || v.PairOK(3, 4) {
		t.Error("unique-role pairs must never be mergeable")
	}
}

func TestBuildOKTemporalFilter(t *testing.T) {
	d := &model.Dataset{Records: []model.Record{
		rec(0, model.Bb, 1870, 0),
		rec(1, model.Bm, 1880, 1), // a 10-year-old mother: impossible
	}}
	v := NewValidator(d)
	if v.BuildOK(0, 1) {
		t.Error("temporally impossible pair should be filtered at build")
	}
}

func TestBirthHintNarrowsInterval(t *testing.T) {
	// A deceased aged 40 in 1890 implies birth ~1850.
	r := rec(0, model.Dd, 1890, 0)
	r.BirthHint = 1850
	lo, hi := BirthYearInterval(&r)
	if lo != 1850-3 || hi != 1850+3 {
		t.Errorf("hinted interval = [%d,%d], want [1847,1853]", lo, hi)
	}
	// The hint cannot widen the role interval.
	r2 := rec(1, model.Bb, 1870, 1)
	r2.BirthHint = 1850 // contradictory hint
	lo, hi = BirthYearInterval(&r2)
	if lo > hi {
		// Contradiction yields an empty interval, which is correct: the
		// records disagree with themselves and match nothing.
		return
	}
	if lo < 1847 {
		t.Errorf("hint failed to narrow: [%d,%d]", lo, hi)
	}
}

func TestBirthHintSeparatesGenerations(t *testing.T) {
	// Census mother aged 30 in 1871 (born ~1841) versus a birth mother in
	// 1898: without the hint the intervals overlap; with it, a woman born
	// 1841 can still mother a child in 1898 at 57? No: Bm allows ages
	// 15-55, so born 1843-1883. The hinted census interval [1838,1844]
	// still overlaps [1843,1883] at 1843-1844, so this pair stays
	// *possible*; a younger hint must exclude it.
	cm := rec(0, model.Cm, 1871, 0)
	cm.BirthHint = 1841
	bm := rec(1, model.Bm, 1898, 1)
	if !TemporalCompatible(&cm, &bm) {
		t.Error("boundary case should remain compatible")
	}
	cm.BirthHint = 1851 // born 1851: aged 47 in 1898, still possible
	if !TemporalCompatible(&cm, &bm) {
		t.Error("mid case should be compatible")
	}
	bmLate := rec(2, model.Bm, 1925, 2)
	if TemporalCompatible(&cm, &bmLate) {
		t.Error("a woman born ~1851 cannot bear a child in 1925")
	}
}
