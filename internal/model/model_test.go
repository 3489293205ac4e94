package model

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestRoleStringAndCertType(t *testing.T) {
	cases := map[Role]struct {
		s string
		c CertType
	}{
		Bb: {"Bb", Birth}, Bm: {"Bm", Birth}, Bf: {"Bf", Birth},
		Dd: {"Dd", Death}, Dm: {"Dm", Death}, Df: {"Df", Death}, Ds: {"Ds", Death},
		Mm: {"Mm", Marriage}, Mf: {"Mf", Marriage},
		Mmm: {"Mmm", Marriage}, Mmf: {"Mmf", Marriage},
		Mfm: {"Mfm", Marriage}, Mff: {"Mff", Marriage},
	}
	for r, want := range cases {
		if r.String() != want.s {
			t.Errorf("Role %d String = %q, want %q", r, r.String(), want.s)
		}
		if r.CertType() != want.c {
			t.Errorf("Role %v CertType = %v, want %v", r, r.CertType(), want.c)
		}
	}
}

// isParent reports whether a role is the mother or father of another role
// on its certificate.
func isParent(r Role) bool {
	for _, rel := range RelationsFor(r.CertType()) {
		if rel.From == r && (rel.Rel == MotherOf || rel.Rel == FatherOf) {
			return true
		}
	}
	return false
}

func TestRoleClassification(t *testing.T) {
	parents := []Role{Bm, Bf, Dm, Df, Mmm, Mmf, Mfm, Mff}
	principals := []Role{Bb, Dd, Mm, Mf}
	for _, r := range parents {
		if !isParent(r) {
			t.Errorf("%v should be a parent role", r)
		}
		if r.IsPrincipal() {
			t.Errorf("%v should not be principal", r)
		}
	}
	for _, r := range principals {
		if !r.IsPrincipal() {
			t.Errorf("%v should be principal", r)
		}
	}
	for _, r := range principals {
		if isParent(r) {
			t.Errorf("%v should not be a parent role", r)
		}
	}
	if isParent(Ds) || Ds.IsPrincipal() {
		t.Error("Ds is neither parent nor principal")
	}
}

func TestRoleGender(t *testing.T) {
	females := []Role{Bm, Dm, Mf, Mmm, Mfm}
	males := []Role{Bf, Df, Mm, Mmf, Mff}
	neutral := []Role{Bb, Dd, Ds}
	for _, r := range females {
		if RoleGender(r) != Female {
			t.Errorf("%v should imply female", r)
		}
	}
	for _, r := range males {
		if RoleGender(r) != Male {
			t.Errorf("%v should imply male", r)
		}
	}
	for _, r := range neutral {
		if RoleGender(r) != GenderUnknown {
			t.Errorf("%v should imply no gender", r)
		}
	}
}

func TestRelationsForClosedUnderInverse(t *testing.T) {
	// Every MotherOf/FatherOf relation on a certificate must have the
	// corresponding ChildOf back-relation, and SpouseOf must be symmetric.
	for _, ct := range []CertType{Birth, Death, Marriage} {
		rels := RelationsFor(ct)
		has := func(from, to Role, rel Relationship) bool {
			for _, r := range rels {
				if r.From == from && r.To == to && r.Rel == rel {
					return true
				}
			}
			return false
		}
		for _, r := range rels {
			switch r.Rel {
			case MotherOf, FatherOf:
				if !has(r.To, r.From, ChildOf) {
					t.Errorf("%v: %v-%v lacks ChildOf inverse", ct, r.From, r.To)
				}
			case SpouseOf:
				if !has(r.To, r.From, SpouseOf) {
					t.Errorf("%v: SpouseOf %v-%v not symmetric", ct, r.From, r.To)
				}
			}
		}
	}
}

func TestMakeRolePairCanonical(t *testing.T) {
	if MakeRolePair(Dd, Bb) != MakeRolePair(Bb, Dd) {
		t.Error("role pairs not canonical")
	}
	if MakeRolePair(Bb, Dd).String() != "Bb-Dd" {
		t.Errorf("String = %q", MakeRolePair(Bb, Dd).String())
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		ra, rb := RecordID(a&0x7fffffff), RecordID(b&0x7fffffff)
		k := MakePairKey(ra, rb)
		x, y := k.Split()
		lo, hi := ra, rb
		if hi < lo {
			lo, hi = hi, lo
		}
		return x == lo && y == hi
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(v []reflect.Value, r *rand.Rand) {
		v[0] = reflect.ValueOf(r.Int31())
		v[1] = reflect.ValueOf(r.Int31())
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRecordValue(t *testing.T) {
	r := Record{First: Intern("mary"), Sur: Intern("smith"), Addr: Intern("5 uig"),
		Occ: Intern("crofter"), Year: 1870}
	cases := map[Attr]string{
		FirstName: "mary", Surname: "smith", Address: "5 uig",
		Occupation: "crofter", EventYear: "1870",
	}
	for a, want := range cases {
		if got := r.Value(a); got != want {
			t.Errorf("Value(%v) = %q, want %q", a, got, want)
		}
	}
	empty := Record{}
	if empty.Value(EventYear) != "" {
		t.Error("zero year should be empty")
	}
}

func TestCategoryOf(t *testing.T) {
	if CategoryOf(FirstName) != Must || CategoryOf(Surname) != Core ||
		CategoryOf(Address) != Extra || CategoryOf(Occupation) != Extra {
		t.Error("default attribute categories wrong")
	}
}

func TestDatasetRecordsByRole(t *testing.T) {
	d := Dataset{Records: []Record{
		{ID: 0, Role: Bb}, {ID: 1, Role: Bm}, {ID: 2, Role: Dd}, {ID: 3, Role: Bm},
	}}
	got := d.RecordsByRole(Bm)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("RecordsByRole(Bm) = %v", got)
	}
	both := d.RecordsByRole(Bb, Dd)
	if len(both) != 2 {
		t.Errorf("RecordsByRole(Bb,Dd) = %v", both)
	}
}

func TestTruePairs(t *testing.T) {
	d := Dataset{Records: []Record{
		{ID: 0, Role: Bm, Truth: 7},
		{ID: 1, Role: Bm, Truth: 7},
		{ID: 2, Role: Bm, Truth: 8},
		{ID: 3, Role: Dm, Truth: 7},
		{ID: 4, Role: Bm, Truth: NoPerson},
	}}
	bmbm := d.TruePairs(MakeRolePair(Bm, Bm))
	if len(bmbm) != 1 || !bmbm[MakePairKey(0, 1)] {
		t.Errorf("Bm-Bm pairs = %v", bmbm)
	}
	bmdm := d.TruePairs(MakeRolePair(Bm, Dm))
	if len(bmdm) != 2 {
		t.Errorf("Bm-Dm pairs = %v, want (0,3) and (1,3)", bmdm)
	}
}

func TestGenderString(t *testing.T) {
	if Male.String() != "m" || Female.String() != "f" || GenderUnknown.String() != "?" {
		t.Error("gender strings wrong")
	}
}

func TestCertTypeString(t *testing.T) {
	if Birth.String() != "B" || Death.String() != "D" || Marriage.String() != "M" {
		t.Error("cert type strings wrong")
	}
}

func TestCensusRoles(t *testing.T) {
	if Census.String() != "C" {
		t.Error("census cert type string")
	}
	for _, r := range []Role{Cf, Cm, Cc1, Cc6} {
		if r.CertType() != Census {
			t.Errorf("%v should belong to Census", r)
		}
	}
	if RoleGender(Cf) != Male || RoleGender(Cm) != Female || RoleGender(Cc1) != GenderUnknown {
		t.Error("census role genders wrong")
	}
	if !isParent(Cf) || !isParent(Cm) || isParent(Cc1) {
		t.Error("census parent classification wrong")
	}
	if !slices.Equal(CensusChildRoles, []Role{Cc1, Cc2, Cc3, Cc4, Cc5, Cc6}) {
		t.Errorf("census child roles = %v", CensusChildRoles)
	}
}

func TestCensusRelations(t *testing.T) {
	rels := RelationsFor(Census)
	if len(rels) != 2+4*len(CensusChildRoles) {
		t.Fatalf("census relations = %d, want %d", len(rels), 2+4*len(CensusChildRoles))
	}
	// Heads are spouses both ways.
	foundSpouse := 0
	for _, r := range rels {
		if r.Rel == SpouseOf {
			foundSpouse++
		}
	}
	if foundSpouse != 2 {
		t.Errorf("census spouse relations = %d, want 2", foundSpouse)
	}
}

func TestGenderCompatible(t *testing.T) {
	mk := func(g Gender, role Role) *Record {
		return &Record{Gender: g, Role: role}
	}
	cases := []struct {
		a, b *Record
		want bool
	}{
		{mk(Male, Bb), mk(Male, Dd), true},
		{mk(Male, Bb), mk(Female, Dd), false},
		{mk(GenderUnknown, Bm), mk(Male, Df), false}, // Bm implies female
		{mk(GenderUnknown, Bb), mk(Male, Dd), true},
		{mk(GenderUnknown, Bm), mk(GenderUnknown, Dm), true},
	}
	for i, c := range cases {
		if got := GenderCompatible(c.a, c.b); got != c.want {
			t.Errorf("case %d: GenderCompatible = %v, want %v", i, got, c.want)
		}
	}
}
