package vitalio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
)

const birthsCSV = `id,year,baby_first,baby_sur,baby_gender,mother_first,mother_sur,father_first,father_sur,address,father_occupation
0,1870,mary,macrae,f,kirsty,macrae,hector,macrae,5 portree,crofter
1,1872,john,macrae,m,kirsty,macrae,hector,macrae,5 portree,crofter
`

const deathsCSV = `id,year,deceased_first,deceased_sur,deceased_gender,age,cause,mother_first,mother_sur,father_first,father_sur,spouse_first,spouse_sur,address,occupation
2,1874,mary,macrae,f,4,measles,kirsty,macrae,hector,macrae,,,5 portree,
`

const marriagesCSV = `id,year,groom_first,groom_sur,bride_first,bride_sur,groom_mother_first,groom_mother_sur,groom_father_first,groom_father_sur,bride_mother_first,bride_mother_sur,bride_father_first,bride_father_sur,address
3,1869,hector,macrae,kirsty,gillies,ann,macrae,john,macrae,flora,gillies,angus,gillies,5 portree
`

func TestReadAllTypes(t *testing.T) {
	r := NewReader("test")
	if err := r.ReadBirths(strings.NewReader(birthsCSV)); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadDeaths(strings.NewReader(deathsCSV)); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadMarriages(strings.NewReader(marriagesCSV)); err != nil {
		t.Fatal(err)
	}
	d := r.Dataset()
	if len(d.Certificates) != 4 {
		t.Fatalf("certificates = %d, want 4", len(d.Certificates))
	}
	// Birth 0: three records.
	b0 := &d.Certificates[0]
	if b0.Type != model.Birth || len(b0.Roles) != 3 {
		t.Fatalf("birth 0: %+v", b0)
	}
	baby := d.Record(b0.Roles[model.Bb])
	if baby.FirstName() != "mary" || baby.Gender != model.Female || baby.Year != 1870 {
		t.Errorf("baby record: %+v", baby)
	}
	// Death: spouse absent (empty name columns).
	dd := &d.Certificates[2]
	if dd.Type != model.Death {
		t.Fatal("cert 2 should be a death")
	}
	if _, ok := dd.Roles[model.Ds]; ok {
		t.Error("empty spouse columns must not create a Ds record")
	}
	if dd.Cause != "measles" || dd.Age != 4 {
		t.Errorf("death cert fields: %+v", dd)
	}
	// Marriage: all six roles present.
	m := &d.Certificates[3]
	if m.Type != model.Marriage || len(m.Roles) != 6 {
		t.Fatalf("marriage cert: %+v", m)
	}
}

func TestReadErrors(t *testing.T) {
	r := NewReader("bad")
	if err := r.ReadBirths(strings.NewReader("0,notayear,a,b,m,c,d,e,f,g,h\n")); err == nil {
		t.Error("bad year should error")
	}
	r = NewReader("bad2")
	if err := r.ReadBirths(strings.NewReader("0,1870,too,few\n")); err == nil {
		t.Error("wrong column count should error")
	}
	r = NewReader("bad3")
	if err := r.ReadBirths(strings.NewReader("0,1870,,,m,kirsty,macrae,hector,macrae,x,y\n")); err == nil {
		t.Error("birth without baby should error")
	}
}

func TestReadNormalisesCase(t *testing.T) {
	r := NewReader("case")
	csv := "0,1870,Mary ,MACRAE,f,Kirsty,Macrae,Hector,Macrae, 5 Portree ,Crofter\n"
	if err := r.ReadBirths(strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	baby := r.Dataset().Record(0)
	if baby.FirstName() != "mary" || baby.Surname() != "macrae" || baby.Address() != "5 portree" {
		t.Errorf("normalisation failed: %+v", baby)
	}
}

func TestRoundTripSimulated(t *testing.T) {
	orig := dataset.Generate(dataset.IOS().Scaled(0.05)).Dataset

	var births, deaths, marriages bytes.Buffer
	w := NewWriter(orig, true)
	if err := w.WriteBirths(&births); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDeaths(&deaths); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMarriages(&marriages); err != nil {
		t.Fatal(err)
	}

	r := NewReader(orig.Name)
	if err := r.ReadBirths(&births); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadDeaths(&deaths); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadMarriages(&marriages); err != nil {
		t.Fatal(err)
	}
	got := r.Dataset()

	if len(got.Certificates) != len(orig.Certificates) {
		t.Fatalf("certificates: %d vs %d", len(got.Certificates), len(orig.Certificates))
	}
	// Count records per type: the round trip may renumber record ids (CSV
	// groups by certificate type) but must preserve every role occurrence
	// with its values and truth.
	count := func(d *model.Dataset) map[model.Role]int {
		out := map[model.Role]int{}
		for i := range d.Records {
			out[d.Records[i].Role]++
		}
		return out
	}
	co, cg := count(orig), count(got)
	for role, n := range co {
		if cg[role] != n {
			t.Errorf("role %v: %d records round-tripped to %d", role, n, cg[role])
		}
	}

	// True pair sets must survive exactly (same persons linked).
	for _, rp := range []model.RolePair{
		model.MakeRolePair(model.Bm, model.Bm),
		model.MakeRolePair(model.Bb, model.Dd),
	} {
		if len(orig.TruePairs(rp)) != len(got.TruePairs(rp)) {
			t.Errorf("%v: truth pairs %d vs %d", rp, len(orig.TruePairs(rp)), len(got.TruePairs(rp)))
		}
	}
}

func TestWriterWithoutTruth(t *testing.T) {
	orig := dataset.Generate(dataset.IOS().Scaled(0.03)).Dataset
	var buf bytes.Buffer
	if err := NewWriter(orig, false).WriteBirths(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(header, "truth") {
		t.Error("truth columns written despite IncludeTruth=false")
	}
	r := NewReader("noTruth")
	if err := r.ReadBirths(&buf); err != nil {
		t.Fatal(err)
	}
	for i := range r.Dataset().Records {
		if r.Dataset().Records[i].Truth != model.NoPerson {
			t.Fatal("records without truth columns must have NoPerson")
		}
	}
}

func TestCensusRoundTrip(t *testing.T) {
	orig := dataset.Generate(dataset.IOS().Scaled(0.05).WithCensus()).Dataset

	var buf bytes.Buffer
	if err := NewWriter(orig, true).WriteCensus(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewReader("census")
	if err := r.ReadCensus(&buf); err != nil {
		t.Fatal(err)
	}
	got := r.Dataset()

	countCensus := func(d *model.Dataset) (certs, records, hints int) {
		for i := range d.Certificates {
			if d.Certificates[i].Type == model.Census {
				certs++
			}
		}
		for i := range d.Records {
			if d.Records[i].Role.CertType() == model.Census {
				records++
				if d.Records[i].BirthHint != 0 {
					hints++
				}
			}
		}
		return
	}
	oc, orc, oh := countCensus(orig)
	gc, grc, gh := countCensus(got)
	if oc == 0 {
		t.Fatal("fixture has no census households")
	}
	if gc != oc || grc != orc {
		t.Fatalf("census round trip: %d/%d certs, %d/%d records", gc, oc, grc, orc)
	}
	if gh != oh {
		t.Fatalf("birth hints: %d vs %d", gh, oh)
	}
}

func TestCensusReadRejectsHeadless(t *testing.T) {
	row := "0,1871,,,,,,," + strings.Repeat(",,,", 5) + ",,\n"
	r := NewReader("bad")
	if err := r.ReadCensus(strings.NewReader(row)); err == nil {
		t.Error("headless household accepted")
	}
}

// A negative age is not a recorded age: it reads as -1 with no birth-year
// hint, so writing the certificate back and reading it again gives the same
// certificate.
func TestNegativeAgeNotRecorded(t *testing.T) {
	row := "0,1874,mary,macrae,f,-3,measles,kirsty,macrae,hector,macrae,,,5 portree,\n"
	r := NewReader("negative")
	if err := r.ReadDeaths(strings.NewReader(row)); err != nil {
		t.Fatal(err)
	}
	d := r.Dataset()
	if got := d.Certificates[0].Age; got != -1 {
		t.Errorf("age %d, want -1", got)
	}
	if hint := d.Record(d.Certificates[0].Roles[model.Dd]).BirthHint; hint != 0 {
		t.Errorf("BirthHint %d from a negative age, want 0", hint)
	}
	var buf bytes.Buffer
	if err := NewWriter(d, false).WriteDeaths(&buf); err != nil {
		t.Fatal(err)
	}
	again := NewReader("again")
	if err := again.ReadDeaths(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Dataset().Certificates, d.Certificates) ||
		!reflect.DeepEqual(again.Dataset().Records, d.Records) {
		t.Errorf("round trip changed the certificate:\n%+v\n%+v", d.Certificates, again.Dataset().Certificates)
	}
}

// A name cell of only whitespace is an empty cell: a role whose names trim
// to nothing is absent, and a certificate whose principal is blank is
// rejected, as ingest.Validate rejects it from JSON.
func TestWhitespaceNamesAbsent(t *testing.T) {
	row := "0,1874,mary,macrae,f,4,measles,kirsty,macrae,hector,macrae, ,,5 portree,\n"
	r := NewReader("blank")
	if err := r.ReadDeaths(strings.NewReader(row)); err != nil {
		t.Fatal(err)
	}
	d := r.Dataset()
	if len(d.Records) != 3 {
		t.Fatalf("%d records, want 3 (Dd, Dm, Df): %+v", len(d.Records), d.Records)
	}
	if _, ok := d.Certificates[0].Roles[model.Ds]; ok {
		t.Error("a blank spouse made a Ds record")
	}
	blank := "0,1874, ,\t,f,4,measles,kirsty,macrae,hector,macrae,,,5 portree,\n"
	if err := NewReader("blank").ReadDeaths(strings.NewReader(blank)); err == nil {
		t.Error("a death whose deceased is blank was accepted")
	}
}
