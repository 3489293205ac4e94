// Package model defines the record, certificate, and role vocabulary shared
// by every stage of the SNAPS pipeline.
//
// A certificate (birth, death, or marriage) mentions several people, each in
// a distinct role: a birth certificate names the baby and its parents, a
// death certificate names the deceased, their parents, and possibly a
// spouse, and a marriage certificate names the bride, the groom, and their
// parents. SNAPS extracts one Record per role occurrence; entity resolution
// then clusters records that refer to the same real-world person.
package model

import (
	"fmt"

	"github.com/snaps/snaps/internal/symbol"
)

// CertType identifies the kind of vital-event certificate a record was
// extracted from.
type CertType uint8

// Certificate kinds. Census is the household-snapshot extension the paper
// lists as future work (Sec. 12); a census "certificate" is one household
// entry of a decennial enumeration.
const (
	Birth CertType = iota
	Death
	Marriage
	Census
)

// String returns the conventional single-letter abbreviation used by the
// paper (B, D, M) plus C for census households.
func (c CertType) String() string {
	switch c {
	case Birth:
		return "B"
	case Death:
		return "D"
	case Marriage:
		return "M"
	case Census:
		return "C"
	}
	return fmt.Sprintf("CertType(%d)", uint8(c))
}

// Role identifies the function a person fulfils on a certificate. The
// two-letter codes follow the paper: the first letter is the certificate
// type, the second the role on it.
type Role uint8

// Roles on birth (B*), death (D*), and marriage (M*) certificates.
const (
	// Birth certificate roles.
	Bb Role = iota // baby
	Bm             // mother of the baby
	Bf             // father of the baby

	// Death certificate roles.
	Dd // deceased person
	Dm // mother of the deceased
	Df // father of the deceased
	Ds // spouse of the deceased (optional)

	// Marriage certificate roles.
	Mm  // groom (marriage male)
	Mf  // bride (marriage female)
	Mmm // groom's mother
	Mmf // groom's father
	Mfm // bride's mother
	Mff // bride's father

	// Census household roles: the male and female household heads and up
	// to six enumerated children. Distinct child roles keep the role→record
	// map of a certificate one-to-one.
	Cf  // census father (male head)
	Cm  // census mother (wife or female head)
	Cc1 // census children, eldest first
	Cc2
	Cc3
	Cc4
	Cc5
	Cc6

	// NumRoles is the number of distinct roles.
	NumRoles
)

var roleNames = [NumRoles]string{
	Bb: "Bb", Bm: "Bm", Bf: "Bf",
	Dd: "Dd", Dm: "Dm", Df: "Df", Ds: "Ds",
	Mm: "Mm", Mf: "Mf", Mmm: "Mmm", Mmf: "Mmf", Mfm: "Mfm", Mff: "Mff",
	Cf: "Cf", Cm: "Cm",
	Cc1: "Cc1", Cc2: "Cc2", Cc3: "Cc3", Cc4: "Cc4", Cc5: "Cc5", Cc6: "Cc6",
}

// CensusChildRoles lists the census child roles in order.
var CensusChildRoles = []Role{Cc1, Cc2, Cc3, Cc4, Cc5, Cc6}

// IsCensusChild reports whether the role is one of the enumerated census
// children.
func (r Role) IsCensusChild() bool { return r >= Cc1 && r <= Cc6 }

// String returns the paper's role code, e.g. "Bb" for a birth baby.
func (r Role) String() string {
	if r < NumRoles {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// CertType reports which certificate kind a role belongs to.
func (r Role) CertType() CertType {
	switch r {
	case Bb, Bm, Bf:
		return Birth
	case Dd, Dm, Df, Ds:
		return Death
	case Mm, Mf, Mmm, Mmf, Mfm, Mff:
		return Marriage
	default:
		return Census
	}
}

// IsParent reports whether the role is a parent role on its certificate.
func (r Role) IsParent() bool {
	switch r {
	case Bm, Bf, Dm, Df, Mmm, Mmf, Mfm, Mff, Cm, Cf:
		return true
	}
	return false
}

// IsPrincipal reports whether the role is the principal subject of its
// certificate (the baby, the deceased, the bride, or the groom).
func (r Role) IsPrincipal() bool {
	switch r {
	case Bb, Dd, Mm, Mf:
		return true
	}
	return false
}

// Gender is the recorded gender of a person on a certificate.
type Gender uint8

// Genders. Unknown is used where the certificate does not determine it.
const (
	GenderUnknown Gender = iota
	Male
	Female
)

// String returns "m", "f", or "?".
func (g Gender) String() string {
	switch g {
	case Male:
		return "m"
	case Female:
		return "f"
	}
	return "?"
}

// RoleGender returns the gender implied by a role, or GenderUnknown when the
// role does not fix it (babies and deceased persons can be either).
func RoleGender(r Role) Gender {
	switch r {
	case Bm, Dm, Mf, Mmm, Mfm, Cm:
		return Female
	case Bf, Df, Mm, Mmf, Mff, Cf:
		return Male
	}
	return GenderUnknown
}

// RecordID uniquely identifies a role occurrence (one Record).
type RecordID int32

// CertID uniquely identifies a certificate.
type CertID int32

// PersonID identifies a ground-truth person in simulated data. It is -1 for
// records whose true identity is unknown.
type PersonID int32

// NoPerson marks a record without ground-truth identity.
const NoPerson PersonID = -1

// Attr enumerates the quasi-identifier (QID) attributes compared by the ER
// process.
type Attr uint8

// QID attributes.
const (
	FirstName Attr = iota
	Surname
	Address
	Occupation
	EventYear // year of the vital event the certificate records
	NumAttrs
)

var attrNames = [NumAttrs]string{
	FirstName: "first_name", Surname: "surname", Address: "address",
	Occupation: "occupation", EventYear: "event_year",
}

// String returns the snake_case attribute name.
func (a Attr) String() string {
	if a < NumAttrs {
		return attrNames[a]
	}
	return fmt.Sprintf("Attr(%d)", uint8(a))
}

// AttrCategory classifies an attribute's importance for the ER process
// (Sec. 4.2.3 of the paper): Must attributes need high similarity, Core
// attributes may differ more, Extra attributes only add evidence.
type AttrCategory uint8

// Attribute categories.
const (
	Must AttrCategory = iota
	Core
	Extra
)

// String returns "must", "core", or "extra".
func (c AttrCategory) String() string {
	switch c {
	case Must:
		return "must"
	case Core:
		return "core"
	}
	return "extra"
}

// CategoryOf returns the default category assignment used by SNAPS: first
// names are Must (complete and stable), surnames are Core (can change at
// marriage), addresses and occupations are Extra (often missing, unstable).
func CategoryOf(a Attr) AttrCategory {
	switch a {
	case FirstName:
		return Must
	case Surname:
		return Core
	default:
		return Extra
	}
}

// Sym aliases the global symbol-table ID so packages constructing records
// need not import internal/symbol separately.
type Sym = symbol.ID

// Intern interns a string attribute value into the global symbol table and
// returns its ID ("" interns to the zero ID).
func Intern(s string) Sym { return symbol.Intern(s) }

// Record is a single occurrence of an individual on a certificate.
//
// The four string QID attributes are integer-coded: each field holds a
// symbol-table ID (internal/symbol) instead of a string, so a record costs
// 16 bytes of attribute state regardless of value length and duplicate
// values across records share one set of backing bytes. Read them through
// FirstName()/Surname()/Address()/Occupation() or Value(); compare for
// exact equality directly on the IDs.
type Record struct {
	ID     RecordID
	Cert   CertID
	Role   Role
	Gender Gender

	First Sym // first (given) name
	Sur   Sym // surname
	Addr  Sym // address
	Occ   Sym // occupation

	// Year is the year of the vital event (birth, death, or marriage) the
	// certificate records, not necessarily the person's birth year.
	Year int

	// Lat, Lon geocode the address when geocoding is available (IOS data
	// set); both are zero when unavailable.
	Lat, Lon float64

	// BirthHint is the person's birth year implied by a recorded age
	// (death certificates record age at death, census enumerations record
	// age); 0 when no age was recorded. It is a hint, not a fact: recorded
	// ages are rounded and mis-stated, so constraints apply it with slack.
	BirthHint int

	// Truth is the ground-truth person this record refers to, or NoPerson.
	Truth PersonID
}

// FirstName resolves the record's first name through the symbol table.
func (r *Record) FirstName() string { return symbol.Str(r.First) }

// Surname resolves the record's surname through the symbol table.
func (r *Record) Surname() string { return symbol.Str(r.Sur) }

// Address resolves the record's address through the symbol table.
func (r *Record) Address() string { return symbol.Str(r.Addr) }

// Occupation resolves the record's occupation through the symbol table.
func (r *Record) Occupation() string { return symbol.Str(r.Occ) }

// Sym returns the record's symbol ID for a string QID attribute (None for
// EventYear, which has no interned representation).
func (r *Record) Sym(a Attr) Sym {
	switch a {
	case FirstName:
		return r.First
	case Surname:
		return r.Sur
	case Address:
		return r.Addr
	case Occupation:
		return r.Occ
	}
	return symbol.None
}

// Value returns the record's value for a string QID attribute, or the
// decimal year for EventYear. Missing values are empty strings.
func (r *Record) Value(a Attr) string {
	switch a {
	case FirstName:
		return symbol.Str(r.First)
	case Surname:
		return symbol.Str(r.Sur)
	case Address:
		return symbol.Str(r.Addr)
	case Occupation:
		return symbol.Str(r.Occ)
	case EventYear:
		if r.Year == 0 {
			return ""
		}
		return fmt.Sprintf("%d", r.Year)
	}
	return ""
}

// Certificate groups the records extracted from one certificate. Absent
// roles (e.g. an unmarried deceased's spouse) have RecordID -1.
type Certificate struct {
	ID   CertID
	Type CertType
	Year int
	// Roles maps every role present on the certificate to its record.
	Roles map[Role]RecordID
	// Cause is the cause of death for death certificates (used by the
	// anonymisation step), empty otherwise.
	Cause string
	// Age is the deceased person's recorded age at death on death
	// certificates, -1 when absent.
	Age int
}

// Relationship labels an edge between two roles on the same certificate or
// between two entities in the pedigree graph.
type Relationship uint8

// Relationship kinds, following the paper: motherOf, fatherOf, spouseOf,
// childOf.
const (
	MotherOf Relationship = iota
	FatherOf
	SpouseOf
	ChildOf
	NumRelationships
)

var relNames = [NumRelationships]string{
	MotherOf: "Mof", FatherOf: "Fof", SpouseOf: "Sof", ChildOf: "Cof",
}

// String returns the paper's abbreviation (Mof, Fof, Sof, Cof).
func (rel Relationship) String() string {
	if rel < NumRelationships {
		return relNames[rel]
	}
	return fmt.Sprintf("Relationship(%d)", uint8(rel))
}

// Inverse returns the relationship seen from the other endpoint: the inverse
// of motherOf/fatherOf is childOf; spouseOf is symmetric; the inverse of
// childOf is reported as MotherOf-or-FatherOf and must be refined by the
// caller using the parent's gender, so Inverse returns SpouseOf for SpouseOf,
// ChildOf for the two parent relations, and panics for ChildOf, which has no
// unique inverse.
func (rel Relationship) Inverse(parentGender Gender) Relationship {
	switch rel {
	case MotherOf, FatherOf:
		return ChildOf
	case SpouseOf:
		return SpouseOf
	case ChildOf:
		if parentGender == Female {
			return MotherOf
		}
		return FatherOf
	}
	panic("model: invalid relationship")
}

// CertRelations lists, for a certificate type, the directed relationships
// among roles on a single certificate. The tuple (From, To, Rel) means
// "From is Rel of To" (e.g. Bm is MotherOf Bb).
type CertRelation struct {
	From, To Role
	Rel      Relationship
}

// RelationsFor returns the intra-certificate relationships for a certificate
// type. The returned slice must not be modified.
func RelationsFor(t CertType) []CertRelation {
	switch t {
	case Birth:
		return birthRelations
	case Death:
		return deathRelations
	case Marriage:
		return marriageRelations
	case Census:
		return censusRelations
	}
	return nil
}

var (
	birthRelations = []CertRelation{
		{Bm, Bb, MotherOf},
		{Bf, Bb, FatherOf},
		{Bb, Bm, ChildOf},
		{Bb, Bf, ChildOf},
		{Bm, Bf, SpouseOf},
		{Bf, Bm, SpouseOf},
	}
	deathRelations = []CertRelation{
		{Dm, Dd, MotherOf},
		{Df, Dd, FatherOf},
		{Dd, Dm, ChildOf},
		{Dd, Df, ChildOf},
		{Dm, Df, SpouseOf},
		{Df, Dm, SpouseOf},
		{Ds, Dd, SpouseOf},
		{Dd, Ds, SpouseOf},
	}
	censusRelations   = buildCensusRelations()
	marriageRelations = []CertRelation{
		{Mm, Mf, SpouseOf},
		{Mf, Mm, SpouseOf},
		{Mmm, Mm, MotherOf},
		{Mmf, Mm, FatherOf},
		{Mfm, Mf, MotherOf},
		{Mff, Mf, FatherOf},
		{Mm, Mmm, ChildOf},
		{Mm, Mmf, ChildOf},
		{Mf, Mfm, ChildOf},
		{Mf, Mff, ChildOf},
		{Mmm, Mmf, SpouseOf},
		{Mmf, Mmm, SpouseOf},
		{Mfm, Mff, SpouseOf},
		{Mff, Mfm, SpouseOf},
	}
)

// buildCensusRelations expands the head-spouse-children relations over the
// six child slots.
func buildCensusRelations() []CertRelation {
	rels := []CertRelation{
		{Cm, Cf, SpouseOf},
		{Cf, Cm, SpouseOf},
	}
	for _, cc := range CensusChildRoles {
		rels = append(rels,
			CertRelation{Cm, cc, MotherOf},
			CertRelation{Cf, cc, FatherOf},
			CertRelation{cc, Cm, ChildOf},
			CertRelation{cc, Cf, ChildOf},
		)
	}
	return rels
}

// RolePair is an unordered pair of roles used to group candidate links
// (e.g. Bb-Dd: a baby linking to a deceased person). The smaller role is
// stored first so pairs compare regardless of argument order.
type RolePair struct {
	A, B Role
}

// MakeRolePair returns the canonical (ordered) role pair for two roles.
func MakeRolePair(a, b Role) RolePair {
	if b < a {
		a, b = b, a
	}
	return RolePair{a, b}
}

// String returns e.g. "Bb-Dd".
func (p RolePair) String() string { return p.A.String() + "-" + p.B.String() }

// Dataset is a fully extracted data set: certificates and their role
// records, plus optional ground truth.
type Dataset struct {
	Name         string
	Certificates []Certificate
	Records      []Record
}

// Record returns the record with the given id. IDs are dense indices into
// the Records slice.
func (d *Dataset) Record(id RecordID) *Record { return &d.Records[id] }

// Clone returns a copy of the data set whose Records and Certificates
// slices are independent of d, so records and certificates can be appended
// to the clone while readers keep using d. Certificate role maps are shared:
// they are never mutated after a certificate is created, so sharing them is
// safe and keeps cloning O(records) rather than O(records + roles).
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		Name:         d.Name,
		Certificates: append([]Certificate(nil), d.Certificates...),
		Records:      append([]Record(nil), d.Records...),
	}
}

// RecordIDs returns the ids of all records, in record order: what a blocker
// takes when every record takes part.
func (d *Dataset) RecordIDs() []RecordID {
	ids := make([]RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	return ids
}

// RecordsByRole returns the ids of all records holding any of the given
// roles.
func (d *Dataset) RecordsByRole(roles ...Role) []RecordID {
	want := [NumRoles]bool{}
	for _, r := range roles {
		want[r] = true
	}
	var out []RecordID
	for i := range d.Records {
		if want[d.Records[i].Role] {
			out = append(out, d.Records[i].ID)
		}
	}
	return out
}

// TruePairs returns the set of ground-truth matching record pairs restricted
// to the given role pair, keyed by canonical PairKey. Records without truth
// are skipped.
func (d *Dataset) TruePairs(rp RolePair) map[PairKey]bool {
	byPerson := map[PersonID][]RecordID{}
	for i := range d.Records {
		rec := &d.Records[i]
		if rec.Truth == NoPerson {
			continue
		}
		if rec.Role == rp.A || rec.Role == rp.B {
			byPerson[rec.Truth] = append(byPerson[rec.Truth], rec.ID)
		}
	}
	out := map[PairKey]bool{}
	for _, ids := range byPerson {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := d.Records[ids[i]], d.Records[ids[j]]
				if MakeRolePair(a.Role, b.Role) != rp {
					continue
				}
				out[MakePairKey(ids[i], ids[j])] = true
			}
		}
	}
	return out
}

// PairKey canonically identifies an unordered record pair.
type PairKey uint64

// MakePairKey returns the canonical key for an unordered record pair.
func MakePairKey(a, b RecordID) PairKey {
	if b < a {
		a, b = b, a
	}
	return PairKey(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// Split returns the two record ids of a pair key (smaller first).
func (k PairKey) Split() (RecordID, RecordID) {
	return RecordID(k >> 32), RecordID(k & 0xffffffff)
}
