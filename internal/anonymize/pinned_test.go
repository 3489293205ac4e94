package anonymize

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
)

// TestAnonymizeOutputPinned pins the anonymiser's output on a geocoded IOS
// population: every record and certificate of the anonymised data set, and
// the name mapping in key order. Names go in as strings, never as symbol
// ids. The hash was taken before the anonymiser's fixed parameters became
// constants, and must not move.
func TestAnonymizeOutputPinned(t *testing.T) {
	d := dataset.Generate(dataset.IOS().Scaled(0.06)).Dataset
	anon, mapping := Anonymize(d, -37)

	h := sha256.New()
	fmt.Fprintf(h, "d %q\n", anon.Name)
	for i := range anon.Records {
		r := &anon.Records[i]
		fmt.Fprintf(h, "r %d %d %v %v %q %q %q %q %d %g %g %d %d\n",
			r.ID, r.Cert, r.Role, r.Gender, r.FirstName(), r.Surname(), r.Address(),
			r.Occupation(), r.Year, r.Lat, r.Lon, r.BirthHint, r.Truth)
	}
	for i := range anon.Certificates {
		c := &anon.Certificates[i]
		fmt.Fprintf(h, "c %d %v %d %q %d", c.ID, c.Type, c.Year, c.Cause, c.Age)
		for role := model.Role(0); role < model.NumRoles; role++ {
			if id, ok := c.Roles[role]; ok {
				fmt.Fprintf(h, " %v=%d", role, id)
			}
		}
		fmt.Fprintln(h)
	}
	keys := make([]string, 0, len(mapping))
	for k := range mapping {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "m %q %q\n", k, mapping[k])
	}
	if got, want := hex.EncodeToString(h.Sum(nil))[:16], "da031d85ca1c87a0"; got != want {
		t.Errorf("anonymised output hash %s, want %s", got, want)
	}
}
