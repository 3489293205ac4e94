// Package constraint implements the temporal and link constraints that
// SNAPS propagates as negative evidence (technique PROP-C, Sec. 4.2.2 of
// the paper).
//
// Temporal constraints are encoded uniformly as role-implied birth-year
// intervals: every role bounds the age of its person at the certificate's
// event year (a birth baby is 0, a birth mother is between 15 and 55, ...),
// so a role occurrence at event year y confines the person's birth year to
// [y-maxAge, y-minAge]. Two records can refer to the same person only if
// their implied intervals intersect. This single rule subsumes the paper's
// examples (e.g. "a Bb becoming a Bm must be 15-55 years later").
//
// Link constraints are uniqueness caps: a person has exactly one birth and
// one death certificate, so an entity may contain at most one Bb and at
// most one Dd record, and at most one record from any single certificate.
// Finally, roles that require the person to be alive at the event cannot
// postdate the person's death record.
package constraint

import "github.com/snaps/snaps/internal/model"

// AgeBounds bounds the age of a role's person at the certificate event.
type AgeBounds struct {
	Min, Max int
}

// ageBounds per role. Mention roles (parents on death/marriage
// certificates) have wide bounds because the mentioned person may be long
// dead: only their child's existence constrains them.
var ageBounds = [model.NumRoles]AgeBounds{
	model.Bb: {0, 0},
	model.Bm: {15, 55},
	model.Bf: {15, 80},
	model.Dd: {0, 110},
	// The deceased's parents were at least 15 at the deceased's birth, which
	// is at most the event year; they may be dead, so no useful upper age.
	model.Dm: {15, 165}, // 110 (child's max age) + 55 (mother's max age at birth)
	model.Df: {15, 190},
	model.Ds: {15, 110},
	model.Mm: {15, 70},
	model.Mf: {15, 70},
	// Parents of bride/groom: child is >=15, parent was 15-80 at child's birth.
	model.Mmm: {30, 125},
	model.Mmf: {30, 150},
	model.Mfm: {30, 125},
	model.Mff: {30, 150},
	// Census household heads and their co-resident children.
	model.Cf:  {16, 100},
	model.Cm:  {16, 100},
	model.Cc1: {0, 35},
	model.Cc2: {0, 35},
	model.Cc3: {0, 35},
	model.Cc4: {0, 35},
	model.Cc5: {0, 35},
	model.Cc6: {0, 35},
}

// Bounds returns the age bounds for a role.
func Bounds(r model.Role) AgeBounds { return ageBounds[r] }

// birthHintSlack tolerates the rounding and mis-statement of recorded ages
// on death certificates and census schedules.
const birthHintSlack = 3

// BirthYearInterval returns the person's implied birth-year interval for a
// record: the role's age bounds at the event year, narrowed by the record's
// recorded-age hint when one exists. Records without a year return an
// unbounded interval.
func BirthYearInterval(rec *model.Record) (lo, hi int) {
	lo, hi = -1<<30, 1<<30
	if rec.Year != 0 {
		b := ageBounds[rec.Role]
		lo, hi = rec.Year-b.Max, rec.Year-b.Min
	}
	if rec.BirthHint != 0 {
		if h := rec.BirthHint - birthHintSlack; h > lo {
			lo = h
		}
		if h := rec.BirthHint + birthHintSlack; h < hi {
			hi = h
		}
	}
	return lo, hi
}

// mustBeAlive reports whether the role requires the person to be alive at
// the certificate's event.
func mustBeAlive(r model.Role) bool {
	switch r {
	case model.Bb, model.Bm, model.Dd, model.Mm, model.Mf,
		model.Cf, model.Cm, model.Cc1, model.Cc2, model.Cc3,
		model.Cc4, model.Cc5, model.Cc6:
		return true
	}
	// Bf can be posthumous (child born after the father's death); Ds may be
	// a predeceased spouse; parent mentions never require life.
	return false
}

// TemporalCompatible reports whether two records can refer to one person
// under the temporal constraints: their implied birth-year intervals must
// intersect, and an alive-role record may not postdate a death record.
func TemporalCompatible(a, b *model.Record) bool {
	alo, ahi := BirthYearInterval(a)
	blo, bhi := BirthYearInterval(b)
	if alo > bhi || blo > ahi {
		return false
	}
	// Death caps: nothing requiring life happens after the person's death.
	if a.Role == model.Dd && mustBeAlive(b.Role) && b.Year > a.Year {
		return false
	}
	if b.Role == model.Dd && mustBeAlive(a.Role) && a.Year > b.Year {
		return false
	}
	// A father can appear on a birth certificate at most one year after his
	// death (posthumous birth).
	if a.Role == model.Dd && b.Role == model.Bf && b.Year > a.Year+1 {
		return false
	}
	if b.Role == model.Dd && a.Role == model.Bf && a.Year > b.Year+1 {
		return false
	}
	// Birth floors: nothing happens before the person is born.
	if a.Role == model.Bb && b.Year != 0 && b.Year < a.Year {
		return false
	}
	if b.Role == model.Bb && a.Year != 0 && a.Year < b.Year {
		return false
	}
	return true
}

// uniqueRole reports whether a role may occur at most once per entity (a
// person has exactly one birth and one death certificate).
func uniqueRole(r model.Role) bool { return r == model.Bb || r == model.Dd }

// siblingWindowYears bounds the event-year gap of same-principal-role
// candidate pairs admitted into the dependency graph: two birth babies more
// than a generation apart cannot even be confusable siblings.
const siblingWindowYears = 30

// BuildOK is the graph-construction filter (the paper's "two filtering
// steps" of Sec. 4.1): impossible role types (same certificate, gender
// conflicts) and temporal constraints. Unlike PairOK it does NOT apply the
// link constraints: a pair of two birth babies (potential siblings) becomes
// a relational node — it can never merge, but its presence in a node group
// is exactly the partial-match-group situation the REL technique handles
// (Sec. 4.2.4).
func (v *Validator) BuildOK(a, b model.RecordID) bool {
	ra, rb := v.d.Record(a), v.d.Record(b)
	if ra.Cert == rb.Cert {
		return false
	}
	if !model.GenderCompatible(ra, rb) {
		return false
	}
	if uniqueRole(ra.Role) && ra.Role == rb.Role {
		// Sibling hypothesis: admitted within a generation window.
		if ra.Year == 0 || rb.Year == 0 {
			return true
		}
		dy := ra.Year - rb.Year
		if dy < 0 {
			dy = -dy
		}
		return dy <= siblingWindowYears
	}
	return TemporalCompatible(ra, rb)
}

// Validator checks link and temporal constraints against a data set.
type Validator struct {
	d *model.Dataset
}

// NewValidator returns a validator over the data set.
func NewValidator(d *model.Dataset) *Validator { return &Validator{d: d} }

// PairOK reports whether two records could possibly co-refer: different
// certificates, compatible gender, role uniqueness, temporal compatibility.
func (v *Validator) PairOK(a, b model.RecordID) bool {
	ra, rb := v.d.Record(a), v.d.Record(b)
	if ra.Cert == rb.Cert {
		return false
	}
	if uniqueRole(ra.Role) && ra.Role == rb.Role {
		return false
	}
	if !model.GenderCompatible(ra, rb) {
		return false
	}
	return TemporalCompatible(ra, rb)
}

// MergeOK reports whether all cross-pairs between two entities satisfy the
// constraints, i.e. whether the two entities could be merged into one
// person (the paper's "apply constraints on every possible record pair
// between the entities"). ea and eb list the records of each entity; they
// may be the same entity, in which case MergeOK reports true.
func (v *Validator) MergeOK(ea, eb []model.RecordID) bool {
	for _, a := range ea {
		for _, b := range eb {
			if a == b {
				return true // same entity
			}
			if !v.PairOK(a, b) {
				return false
			}
		}
	}
	return true
}
