package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/snaps/snaps/internal/model"
)

// hashPopulation writes the data set name and every field of every record,
// certificate and ground-truth person of p. Names go in as strings, never
// as symbol ids, which depend on the order values were interned in.
func hashPopulation(h hash.Hash, p *Population) {
	d := p.Dataset
	fmt.Fprintf(h, "d %q\n", d.Name)
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
	for i := range p.Persons {
		q := &p.Persons[i]
		fmt.Fprintf(h, "p %d %v %q %q %q %d %d %d %d %d %q %q %d\n",
			q.ID, q.Gender, q.FirstName, q.MaidenSurname, q.Surname, q.BirthYear, q.DeathYear,
			q.Mother, q.Father, q.Spouse, q.Address, q.Occupation, q.MarriageYear)
	}
}

// TestGeneratorOutputPinned pins what both generators emit: a DS tier from
// the direct-emission generator and a geocoded IOS population with
// censuses from the simulator. The hashes were taken before the
// generators' fixed parameters became constants, and must not move.
func TestGeneratorOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		pop  func() *Population
		want string
	}{
		{"DS-3k", func() *Population { return GenerateScale(ScaleTier(3000)) }, "86b405c6d65ee1d7"},
		{"IOS 0.06 census", func() *Population { return Generate(IOS().Scaled(0.06).WithCensus()) }, "3b22034ba82b19f5"},
	} {
		h := sha256.New()
		hashPopulation(h, tc.pop())
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
			t.Errorf("%s: output hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
