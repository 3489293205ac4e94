// Package ingest implements the live ingestion subsystem: new vital-event
// certificates are accepted while the server keeps answering queries. A
// submitted certificate is journalled to an append-only WAL, buffered in a
// batch, and folded into the resolved data set by a background worker that
// runs the incremental er.Extend pass and rebuilds the pedigree graph and
// the query indexes off the hot path. The rebuilt bundle (data set, entity
// store, graph, engine) is published with an RCU-style atomic pointer swap,
// so in-flight queries keep their consistent snapshot and new queries see
// the updated one — readers never block on a rebuild and never observe a
// half-built index.
package ingest

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/vitalio"
)

// Person is one role occurrence on a submitted certificate.
type Person struct {
	FirstName string `json:"first_name"`
	Surname   string `json:"surname"`
	// Gender is "m" or "f"; it is only consulted for roles whose gender the
	// role code does not already fix (babies, deceased persons, spouses).
	Gender string `json:"gender,omitempty"`
}

// Certificate is the wire format of one ingested certificate. Roles maps
// the paper's role codes (Bb, Bm, Bf, Dd, Dm, Df, Ds, Mm, Mf, Mmm, Mmf,
// Mfm, Mff, and the census roles) to the persons occupying them; only roles
// belonging to the certificate type are accepted, and the principal role
// (the baby, the deceased, or both spouses) is mandatory.
type Certificate struct {
	// Type is "birth", "death", "marriage", or "census".
	Type string `json:"type"`
	// Year of the vital event.
	Year int `json:"year"`
	// Address recorded on the certificate, shared by its roles.
	Address string `json:"address,omitempty"`
	// Age at death (death certificates); implies a birth-year hint.
	Age int `json:"age,omitempty"`
	// Cause of death (death certificates).
	Cause string `json:"cause,omitempty"`
	// Occupation of the certificate's principal earner.
	Occupation string `json:"occupation,omitempty"`

	Roles map[string]Person `json:"roles"`
}

// certType parses the type field.
func (c *Certificate) certType() (model.CertType, error) {
	switch strings.ToLower(strings.TrimSpace(c.Type)) {
	case "birth", "b":
		return model.Birth, nil
	case "death", "d":
		return model.Death, nil
	case "marriage", "m":
		return model.Marriage, nil
	case "census", "c":
		return model.Census, nil
	}
	return 0, fmt.Errorf("ingest: unknown certificate type %q", c.Type)
}

// roleByCode resolves a role code like "Bb" case-insensitively.
func roleByCode(code string) (model.Role, bool) {
	for r := model.Role(0); r < model.NumRoles; r++ {
		if strings.EqualFold(r.String(), code) {
			return r, true
		}
	}
	return 0, false
}

// Validate rejects certificates that cannot be applied: unknown types or
// role codes, roles from a different certificate type, nameless persons,
// and missing principal roles.
func (c *Certificate) Validate() error {
	t, err := c.certType()
	if err != nil {
		return err
	}
	if len(c.Roles) == 0 {
		return fmt.Errorf("ingest: certificate has no roles")
	}
	present := map[model.Role]bool{}
	for code, p := range c.Roles {
		role, ok := roleByCode(code)
		if !ok {
			return fmt.Errorf("ingest: unknown role code %q", code)
		}
		if role.CertType() != t {
			return fmt.Errorf("ingest: role %v does not belong on a %s certificate", role, c.Type)
		}
		if present[role] {
			return fmt.Errorf("ingest: role %v given twice", role)
		}
		present[role] = true
		if strings.TrimSpace(p.FirstName) == "" && strings.TrimSpace(p.Surname) == "" {
			return fmt.Errorf("ingest: role %v has neither first name nor surname", role)
		}
	}
	if err := vitalio.CheckPrincipals(t, func(r model.Role) bool { return present[r] }); err != nil {
		return fmt.Errorf("ingest: %s certificate %w", c.Type, err)
	}
	return nil
}

// Apply appends the certificate and its records to the data set through
// vitalio.Append, the convention CSV import follows too, and returns the id
// of the first record appended. An age of 0 is not a recorded age. The
// certificate must have passed Validate.
func Apply(d *model.Dataset, c *Certificate) (model.RecordID, error) {
	t, err := c.certType()
	if err != nil {
		return 0, err
	}
	vc := vitalio.Cert{Type: t, Year: c.Year, Address: c.Address, Cause: c.Cause, Occupation: c.Occupation}
	if c.Age > 0 {
		vc.Age = strconv.Itoa(c.Age)
	}
	for role := model.Role(0); role < model.NumRoles; role++ {
		if p, ok := rolePerson(c.Roles, role); ok {
			vc.Roles[role] = vitalio.Person{First: p.FirstName, Sur: p.Surname, Gender: p.Gender}
		}
	}
	return vitalio.Append(d, &vc)
}

// rolePerson finds the person for a role under any casing of its code.
func rolePerson(roles map[string]Person, role model.Role) (Person, bool) {
	if p, ok := roles[role.String()]; ok {
		return p, true
	}
	for code, p := range roles {
		if strings.EqualFold(code, role.String()) {
			return p, true
		}
	}
	return Person{}, false
}
