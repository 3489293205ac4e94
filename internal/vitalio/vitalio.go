// Package vitalio owns the transcription convention: Append turns one
// transcribed certificate into its model.Certificate and one model.Record
// per role, for CSV import here and for live ingest (internal/ingest),
// which translates its JSON certificates into a Cert.
//
// Certificates are read from and written to CSV files, one per certificate
// type, so that SNAPS can be applied to real transcribed certificates and
// not only the built-in simulator. The layouts mirror transcribed Scottish
// statutory registers (and the published BHIC open-data dumps): a row holds
// the event fields and the names (and address, occupation, age) of each
// role on the certificate; empty cells are missing values, and optional
// trailing truth columns carry ground-truth person ids for evaluation. One
// table per type (births, deaths, marriages, census below) lists the
// columns and drives the header, the reader and the writer.
package vitalio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/snaps/snaps/internal/model"
)

// Cert is one transcribed certificate: the cells of a CSV row or the fields
// of an ingested certificate, before normalisation. Empty strings are
// missing values.
type Cert struct {
	Type       model.CertType
	Year       int
	Address    string
	Age        string // age at death
	Cause      string
	Occupation string
	// Roles holds the person in each role; a role whose names are both
	// empty after trimming is absent from the certificate.
	Roles [model.NumRoles]Person
}

// Person is one role on a transcribed certificate.
type Person struct {
	First, Sur string
	Gender     string // "m"/"male" or "f"/"female"; used where the role does not fix it
	Age        string // a census member's age
	Truth      string // ground-truth person id
}

var principals = [...][]model.Role{model.Birth: {model.Bb}, model.Death: {model.Dd},
	model.Marriage: {model.Mm, model.Mf}, model.Census: {model.Cf, model.Cm}}

// Principals lists the principal roles of a certificate type (the baby, the
// deceased, both spouses, the census heads) in model.Role order, and whether
// a certificate must name all of them or, for census, only one.
func Principals(t model.CertType) (roles []model.Role, all bool) {
	return principals[t], t != model.Census
}

// CheckPrincipals reports a certificate of type t whose present roles lack
// its principals.
func CheckPrincipals(t model.CertType, present func(model.Role) bool) error {
	roles, all := Principals(t)
	n := 0
	for _, r := range roles {
		if present(r) {
			n++
		}
	}
	if n == 0 || all && n < len(roles) {
		return fmt.Errorf("missing principal role %v", roles)
	}
	return nil
}

// Append appends the certificate and one record per present role, in
// model.Role order, to d, and returns the id of the first record appended.
// Names, address, occupation and cause are trimmed and lower-cased. Every
// role gets the address except the parents on a death certificate (it is
// the deceased's household); Bf on a birth and Dd on a death get the
// occupation. A role's gender is the one its code implies, else the
// transcribed one. A recorded age (the age at death for Dd, a census
// member's age otherwise) gives BirthHint = year - age when the year is
// known.
func Append(d *model.Dataset, c *Cert) (model.RecordID, error) {
	present := func(r model.Role) bool {
		return strings.TrimSpace(c.Roles[r].First) != "" || strings.TrimSpace(c.Roles[r].Sur) != ""
	}
	if err := CheckPrincipals(c.Type, present); err != nil {
		return 0, err
	}
	certID := model.CertID(len(d.Certificates))
	cert := model.Certificate{
		ID: certID, Type: c.Type, Year: c.Year,
		Roles: make(map[model.Role]model.RecordID), Age: -1,
	}
	if c.Type == model.Death {
		cert.Cause = Norm(c.Cause)
		cert.Age = parseNonNeg(c.Age)
	}
	firstNew := model.RecordID(len(d.Records))
	for role := model.Role(0); role < model.NumRoles; role++ {
		if !present(role) {
			continue
		}
		p := &c.Roles[role]
		gender := model.RoleGender(role)
		if gender == model.GenderUnknown {
			gender = parseGender(p.Gender)
		}
		addr, occ := c.Address, ""
		if role == model.Dm || role == model.Df {
			addr = ""
		}
		if role == model.Bf || role == model.Dd {
			occ = c.Occupation
		}
		id := model.RecordID(len(d.Records))
		rec := model.Record{
			ID: id, Cert: certID, Role: role, Gender: gender,
			First: model.Intern(Norm(p.First)), Sur: model.Intern(Norm(p.Sur)),
			Addr: model.Intern(Norm(addr)), Occ: model.Intern(Norm(occ)),
			Year: c.Year, Truth: model.PersonID(parseNonNeg(p.Truth)),
		}
		age := parseNonNeg(p.Age)
		if role == model.Dd {
			age = cert.Age
		}
		if age >= 0 && c.Year != 0 {
			rec.BirthHint = c.Year - age
		}
		d.Records = append(d.Records, rec)
		cert.Roles[role] = id
	}
	d.Certificates = append(d.Certificates, cert)
	return firstNew, nil
}

// Norm is the normalisation Append gives names, addresses, occupations and
// causes: trimmed and lower-cased.
func Norm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func parseGender(s string) model.Gender {
	switch Norm(s) {
	case "m", "male":
		return model.Male
	case "f", "female":
		return model.Female
	}
	return model.GenderUnknown
}

// parseNonNeg reads an age or a truth id: -1 (model.NoPerson) when empty,
// unreadable or negative.
func parseNonNeg(s string) int {
	if s = strings.TrimSpace(s); s == "" {
		return -1 // most cells are empty; strconv's error would allocate
	}
	if v, err := strconv.Atoi(s); err == nil && v >= 0 {
		return v
	}
	return -1
}

// field is what a CSV column holds.
type field uint8

const (
	fID field = iota
	fYear
	fAddress
	fAge // age at death
	fCause
	fOccupation // the column's role's
	fFirst
	fSur
	fGender
	fMemberAge // a census member's age
	fTruth     // the optional truth columns, last in a schema
)

// column is one CSV column; role is unused by certificate-level fields.
type column struct {
	name  string
	role  model.Role
	field field
}

// schema is the CSV layout of one certificate type.
type schema struct {
	typ  model.CertType
	cols []column // the fixed columns, then the truth columns
	// addr lists the roles the writer's address column takes the first
	// non-empty address of.
	addr []model.Role
}

var fieldSuffix = [...]string{fFirst: "_first", fSur: "_sur", fGender: "_gender",
	fOccupation: "_occupation", fMemberAge: "_age", fTruth: "_truth"}

// person lists the columns prefix_first, prefix_sur, ... of one role.
func person(prefix string, role model.Role, fields ...field) []column {
	cols := make([]column, len(fields))
	for i, f := range fields {
		cols[i] = column{prefix + fieldSuffix[f], role, f}
	}
	return cols
}

func cols(groups ...[]column) []column {
	var out []column
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

var event = []column{{"id", 0, fID}, {"year", 0, fYear}}

var (
	births = schema{model.Birth, cols(event,
		person("baby", model.Bb, fFirst, fSur, fGender),
		person("mother", model.Bm, fFirst, fSur),
		person("father", model.Bf, fFirst, fSur),
		[]column{{"address", 0, fAddress}},
		person("father", model.Bf, fOccupation),
		person("baby", model.Bb, fTruth), person("mother", model.Bm, fTruth),
		person("father", model.Bf, fTruth),
	), []model.Role{model.Bb, model.Bm, model.Bf}}

	deaths = schema{model.Death, cols(event,
		person("deceased", model.Dd, fFirst, fSur, fGender),
		[]column{{"age", 0, fAge}, {"cause", 0, fCause}},
		person("mother", model.Dm, fFirst, fSur),
		person("father", model.Df, fFirst, fSur),
		person("spouse", model.Ds, fFirst, fSur),
		[]column{{"address", 0, fAddress}, {"occupation", model.Dd, fOccupation}},
		person("deceased", model.Dd, fTruth), person("mother", model.Dm, fTruth),
		person("father", model.Df, fTruth), person("spouse", model.Ds, fTruth),
	), []model.Role{model.Dd, model.Ds}}

	marriages = schema{model.Marriage, cols(event,
		person("groom", model.Mm, fFirst, fSur),
		person("bride", model.Mf, fFirst, fSur),
		person("groom_mother", model.Mmm, fFirst, fSur),
		person("groom_father", model.Mmf, fFirst, fSur),
		person("bride_mother", model.Mfm, fFirst, fSur),
		person("bride_father", model.Mff, fFirst, fSur),
		[]column{{"address", 0, fAddress}},
		person("groom", model.Mm, fTruth), person("bride", model.Mf, fTruth),
		person("gm", model.Mmm, fTruth), person("gf", model.Mmf, fTruth),
		person("bm", model.Mfm, fTruth), person("bf", model.Mff, fTruth),
	), []model.Role{model.Mm, model.Mf}}

	census = censusSchema()
)

// censusSchema lays out a household with the model's six census children.
func censusSchema() schema {
	fixed := cols(event,
		person("head", model.Cf, fFirst, fSur, fMemberAge),
		person("wife", model.Cm, fFirst, fSur, fMemberAge))
	truth := cols(person("head", model.Cf, fTruth), person("wife", model.Cm, fTruth))
	for i, role := range model.CensusChildRoles {
		prefix := fmt.Sprintf("child%d", i+1)
		fixed = append(fixed, person(prefix, role, fFirst, fSur, fMemberAge)...)
		truth = append(truth, person(prefix, role, fTruth)...)
	}
	return schema{model.Census, cols(fixed, truth), nil}
}

// fixed returns the schema's columns without the truth columns.
func (s *schema) fixed() []column {
	n := 0
	for n < len(s.cols) && s.cols[n].field != fTruth {
		n++
	}
	return s.cols[:n]
}

func names(cols []column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}

// Reader accumulates certificates parsed from the CSV streams into a
// model.Dataset.
type Reader struct {
	d *model.Dataset
}

// NewReader returns a reader building a data set with the given name.
func NewReader(name string) *Reader {
	return &Reader{d: &model.Dataset{Name: name}}
}

// Dataset returns the accumulated data set.
func (r *Reader) Dataset() *model.Dataset { return r.d }

// ReadBirths parses a births CSV stream.
func (r *Reader) ReadBirths(src io.Reader) error { return r.read(src, &births) }

// ReadDeaths parses a deaths CSV stream.
func (r *Reader) ReadDeaths(src io.Reader) error { return r.read(src, &deaths) }

// ReadMarriages parses a marriages CSV stream.
func (r *Reader) ReadMarriages(src io.Reader) error { return r.read(src, &marriages) }

// ReadCensus parses a census household CSV stream.
func (r *Reader) ReadCensus(src io.Reader) error { return r.read(src, &census) }

func (r *Reader) read(src io.Reader, s *schema) error {
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1
	nFixed := len(s.fixed())
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err == nil && line == 1 && len(row) > 0 && strings.EqualFold(row[0], "id") {
			continue // header row
		}
		if err == nil && len(row) != nFixed && len(row) != len(s.cols) {
			err = fmt.Errorf("%d columns, want %d or %d", len(row), nFixed, len(s.cols))
		}
		if err == nil {
			err = r.parse(row, s)
		}
		if err != nil {
			return fmt.Errorf("vitalio: %s row %d: %w", s.typ, line, err)
		}
	}
}

func (r *Reader) parse(row []string, s *schema) error {
	c := Cert{Type: s.typ}
	for i, cell := range row {
		col := s.cols[i]
		p := &c.Roles[col.role]
		switch col.field {
		case fYear:
			y, err := parseYear(cell)
			if err != nil {
				return err
			}
			c.Year = y
		case fAddress:
			c.Address = cell
		case fAge:
			c.Age = cell
		case fCause:
			c.Cause = cell
		case fOccupation:
			c.Occupation = cell
		case fFirst:
			p.First = cell
		case fSur:
			p.Sur = cell
		case fGender:
			p.Gender = cell
		case fMemberAge:
			p.Age = cell
		case fTruth:
			p.Truth = cell
		}
	}
	_, err := Append(r.d, &c)
	return err
}

func parseYear(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	y, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad year %q", s)
	}
	return y, nil
}

// Writer exports a model.Dataset back to the CSV schemas.
type Writer struct {
	d *model.Dataset
	// IncludeTruth adds the ground-truth columns when set.
	IncludeTruth bool
}

// NewWriter returns a writer for the data set.
func NewWriter(d *model.Dataset, includeTruth bool) *Writer {
	return &Writer{d: d, IncludeTruth: includeTruth}
}

// WriteBirths writes all birth certificates.
func (w *Writer) WriteBirths(dst io.Writer) error { return w.write(dst, &births) }

// WriteDeaths writes all death certificates.
func (w *Writer) WriteDeaths(dst io.Writer) error { return w.write(dst, &deaths) }

// WriteMarriages writes all marriage certificates.
func (w *Writer) WriteMarriages(dst io.Writer) error { return w.write(dst, &marriages) }

// WriteCensus writes all census households.
func (w *Writer) WriteCensus(dst io.Writer) error { return w.write(dst, &census) }

func (w *Writer) write(dst io.Writer, s *schema) error {
	cols := s.cols
	if !w.IncludeTruth {
		cols = s.fixed()
	}
	cw := csv.NewWriter(dst)
	if err := cw.Write(names(cols)); err != nil {
		return err
	}
	row := make([]string, len(cols))
	for i := range w.d.Certificates {
		c := &w.d.Certificates[i]
		if c.Type != s.typ {
			continue
		}
		for j, col := range cols {
			row[j] = w.cell(c, col, s)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// cell returns the value of one column of a certificate's row.
func (w *Writer) cell(c *model.Certificate, col column, s *schema) string {
	switch col.field {
	case fID:
		return strconv.Itoa(int(c.ID))
	case fYear:
		return strconv.Itoa(c.Year)
	case fAddress:
		for _, role := range s.addr {
			if r := w.rec(c, role); r != nil && r.Addr != 0 {
				return r.Address()
			}
		}
		return ""
	case fAge:
		if c.Age >= 0 {
			return strconv.Itoa(c.Age)
		}
		return ""
	case fCause:
		return c.Cause
	}
	r := w.rec(c, col.role)
	if r == nil {
		return ""
	}
	switch col.field {
	case fOccupation:
		return r.Occupation()
	case fFirst:
		return r.FirstName()
	case fSur:
		return r.Surname()
	case fGender:
		if r.Gender != model.GenderUnknown {
			return r.Gender.String()
		}
	case fMemberAge:
		if r.BirthHint != 0 && c.Year != 0 {
			// A mis-stated age cannot be negative on paper.
			return strconv.Itoa(max(c.Year-r.BirthHint, 0))
		}
	case fTruth:
		if r.Truth != model.NoPerson {
			return strconv.Itoa(int(r.Truth))
		}
	}
	return ""
}

func (w *Writer) rec(c *model.Certificate, role model.Role) *model.Record {
	id, ok := c.Roles[role]
	if !ok {
		return nil
	}
	return w.d.Record(id)
}
