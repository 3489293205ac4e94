package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/vitalio"
)

// hashDataset writes every field of every record and certificate of d.
func hashDataset(h hash.Hash, d *model.Dataset) {
	for i := range d.Records {
		r := &d.Records[i]
		fmt.Fprintf(h, "r %d %d %v %v %q %q %q %q %d %g %g %d %d\n",
			r.ID, r.Cert, r.Role, r.Gender, r.FirstName(), r.Surname(), r.Address(),
			r.Occupation(), r.Year, r.Lat, r.Lon, r.BirthHint, r.Truth)
	}
	for i := range d.Certificates {
		c := &d.Certificates[i]
		fmt.Fprintf(h, "c %d %v %d %q %d", c.ID, c.Type, c.Year, c.Cause, c.Age)
		for role := model.Role(0); role < model.NumRoles; role++ {
			if id, ok := c.Roles[role]; ok {
				fmt.Fprintf(h, " %v=%d", role, id)
			}
		}
		fmt.Fprintln(h)
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// writeCSVs writes the four CSV files of d.
func writeCSVs(t *testing.T, d *model.Dataset, truth bool) (births, deaths, marriages, census *bytes.Buffer) {
	t.Helper()
	births, deaths, marriages, census = new(bytes.Buffer), new(bytes.Buffer), new(bytes.Buffer), new(bytes.Buffer)
	w := vitalio.NewWriter(d, truth)
	for _, err := range []error{w.WriteBirths(births), w.WriteDeaths(deaths),
		w.WriteMarriages(marriages), w.WriteCensus(census)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return
}

// toWire converts generated certificates to the ingest wire format as the
// benchmark's chain does (bench/chain.go), census households included: the
// address is the first principal's, the occupation Bf's or Dd's, and a
// certificate the validator refuses is left out.
func toWire(d *model.Dataset) []Certificate {
	types := map[model.CertType]string{model.Birth: "birth", model.Death: "death",
		model.Marriage: "marriage", model.Census: "census"}
	var out []Certificate
	for i := range d.Certificates {
		mc := &d.Certificates[i]
		c := Certificate{Type: types[mc.Type], Year: mc.Year, Cause: mc.Cause, Roles: map[string]Person{}}
		if mc.Age > 0 {
			c.Age = mc.Age
		}
		for role := model.Role(0); role < model.NumRoles; role++ {
			id, ok := mc.Roles[role]
			if !ok || id < 0 {
				continue
			}
			r := d.Record(id)
			p := Person{FirstName: r.FirstName(), Surname: r.Surname()}
			if r.Gender != model.GenderUnknown {
				p.Gender = r.Gender.String()
			}
			c.Roles[role.String()] = p
			if role.IsPrincipal() && c.Address == "" {
				c.Address = r.Address()
			}
			if role == model.Bf || role == model.Dd {
				c.Occupation = r.Occupation()
			}
		}
		if c.Validate() == nil {
			out = append(out, c)
		}
	}
	return out
}

// TestTranscriptionFingerprints pins the certificate-to-records convention
// on a simulated data set with census households: (a) the bytes of the four
// CSVs written with and without truth, (b) the data set read back from
// them, and (c) the data set Apply builds from the same certificates sent
// as ingest JSON. The hashes were taken before CSV import and live ingest
// shared one mapping, and must not move.
func TestTranscriptionFingerprints(t *testing.T) {
	orig := dataset.Generate(dataset.IOS().Scaled(0.05).WithCensus()).Dataset

	csvHash := sha256.New()
	for _, truth := range []bool{true, false} {
		b, d, m, c := writeCSVs(t, orig, truth)
		for _, buf := range []*bytes.Buffer{b, d, m, c} {
			csvHash.Write(buf.Bytes())
		}
	}

	b, d, m, c := writeCSVs(t, orig, true)
	r := vitalio.NewReader("fingerprint")
	for _, err := range []error{r.ReadBirths(b), r.ReadDeaths(d), r.ReadMarriages(m), r.ReadCensus(c)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	readHash := sha256.New()
	hashDataset(readHash, r.Dataset())

	applied := &model.Dataset{Name: "fingerprint"}
	for _, wc := range toWire(orig) {
		if _, err := Apply(applied, &wc); err != nil {
			t.Fatal(err)
		}
	}
	applyHash := sha256.New()
	hashDataset(applyHash, applied)

	for _, tc := range []struct{ name, got, want string }{
		{"csv bytes", sum(csvHash), "61b7a7fbf0b562cf"},
		{"csv read back", sum(readHash), "501f877aaddeea7c"},
		{"ingest apply", sum(applyHash), "2a2793f12eea0541"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestCSVAndJSONAgree reads one certificate of each type from CSV and
// applies the same certificates as ingest JSON: the records and
// certificates must be identical. The census household carries no address
// and no ages, which the JSON format cannot express.
func TestCSVAndJSONAgree(t *testing.T) {
	r := vitalio.NewReader("csv")
	for _, step := range []struct {
		read func(src *strings.Reader) error
		csv  string
	}{
		{func(s *strings.Reader) error { return r.ReadBirths(s) },
			"0,1870,Mary,MacRae,f,Kirsty,MacRae,Hector,MacRae,5 Portree,Crofter\n"},
		{func(s *strings.Reader) error { return r.ReadDeaths(s) },
			"1,1874,Mary,MacRae,f,4,Measles,Kirsty,MacRae,Hector,MacRae,Ewen,Nicolson,5 Portree,Servant\n"},
		{func(s *strings.Reader) error { return r.ReadMarriages(s) },
			"2,1869,Hector,MacRae,Kirsty,Gillies,Ann,MacRae,John,MacRae,Flora,Gillies,Angus,Gillies,Uig\n"},
		{func(s *strings.Reader) error { return r.ReadCensus(s) },
			"3,1871,Hector,MacRae,,Kirsty,MacRae,,John,MacRae,,Ann,MacRae," + strings.Repeat(",,,", 4) + "\n"},
	} {
		if err := step.read(strings.NewReader(step.csv)); err != nil {
			t.Fatal(err)
		}
	}

	wire := []Certificate{
		{Type: "birth", Year: 1870, Address: "5 Portree", Occupation: "Crofter", Roles: map[string]Person{
			"Bb": {FirstName: "Mary", Surname: "MacRae", Gender: "f"},
			"Bm": {FirstName: "Kirsty", Surname: "MacRae"},
			"Bf": {FirstName: "Hector", Surname: "MacRae"},
		}},
		{Type: "death", Year: 1874, Address: "5 Portree", Age: 4, Cause: "Measles", Occupation: "Servant", Roles: map[string]Person{
			"Dd": {FirstName: "Mary", Surname: "MacRae", Gender: "f"},
			"Dm": {FirstName: "Kirsty", Surname: "MacRae"},
			"Df": {FirstName: "Hector", Surname: "MacRae"},
			"Ds": {FirstName: "Ewen", Surname: "Nicolson"},
		}},
		{Type: "marriage", Year: 1869, Address: "Uig", Roles: map[string]Person{
			"Mm":  {FirstName: "Hector", Surname: "MacRae"},
			"Mf":  {FirstName: "Kirsty", Surname: "Gillies"},
			"Mmm": {FirstName: "Ann", Surname: "MacRae"},
			"Mmf": {FirstName: "John", Surname: "MacRae"},
			"Mfm": {FirstName: "Flora", Surname: "Gillies"},
			"Mff": {FirstName: "Angus", Surname: "Gillies"},
		}},
		{Type: "census", Year: 1871, Roles: map[string]Person{
			"Cf":  {FirstName: "Hector", Surname: "MacRae"},
			"Cm":  {FirstName: "Kirsty", Surname: "MacRae"},
			"Cc1": {FirstName: "John", Surname: "MacRae"},
			"Cc2": {FirstName: "Ann", Surname: "MacRae"},
		}},
	}
	applied := &model.Dataset{Name: "json"}
	for i := range wire {
		if err := wire[i].Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := Apply(applied, &wire[i]); err != nil {
			t.Fatal(err)
		}
	}

	got := r.Dataset()
	if len(got.Records) != 17 {
		t.Fatalf("CSV gave %d records, want 17", len(got.Records))
	}
	if !reflect.DeepEqual(got.Records, applied.Records) {
		for i := range got.Records {
			if i < len(applied.Records) && got.Records[i] != applied.Records[i] {
				t.Errorf("record %d: CSV %+v, JSON %+v", i, got.Records[i], applied.Records[i])
			}
		}
		t.Fatalf("records differ (%d CSV, %d JSON)", len(got.Records), len(applied.Records))
	}
	if !reflect.DeepEqual(got.Certificates, applied.Certificates) {
		t.Errorf("certificates differ:\nCSV  %+v\nJSON %+v", got.Certificates, applied.Certificates)
	}
}
