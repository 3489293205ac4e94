package store

import (
	"bytes"
	"testing"

	"github.com/snaps/snaps/internal/model"
)

// fuzzSeedSnapshot builds a tiny but feature-complete snapshot by hand so
// fuzz workers start instantly (the full ER pipeline takes seconds and
// would dominate worker startup).
func fuzzSeedSnapshot() *Snapshot {
	d := &model.Dataset{Name: "fuzz-seed"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender) model.RecordID {
		id := model.RecordID(len(d.Records))
		rec := model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur),
			Addr: model.Intern("5 uig"), Year: year,
			Truth: model.NoPerson,
		}
		if id == 0 {
			rec.Lat, rec.Lon = 57.58, -6.35
			rec.BirthHint = year - 30
		}
		d.Records = append(d.Records, rec)
		return id
	}
	b := add(model.Bb, 0, "torquil", "macsween", 1870, model.Male)
	m := add(model.Bm, 0, "flora", "macsween", 1870, model.Female)
	f := add(model.Bf, 0, "ewen", "macsween", 1870, model.Male)
	dd := add(model.Dd, 1, "torquil", "macsween", 1940, model.Male)
	d.Certificates = []model.Certificate{
		{ID: 0, Type: model.Birth, Year: 1870, Roles: map[model.Role]model.RecordID{model.Bb: b, model.Bm: m, model.Bf: f}, Age: -1},
		{ID: 1, Type: model.Death, Year: 1940, Roles: map[model.Role]model.RecordID{model.Dd: dd}, Cause: "old age", Age: 70},
	}
	return &Snapshot{Dataset: d, Clusters: [][]model.RecordID{{b, dd}}}
}

// FuzzSnapshotLoad throws mutated snapshot bytes at the reader. The
// invariants: never panic, and never trust an attacker-controlled length
// prefix for allocation (the hostile-length unit test pins the allocation
// bound; here the fuzzer hunts for panics and runaway paths in the v02
// decoder and around the magic check).
func FuzzSnapshotLoad(f *testing.F) {
	snap := fuzzSeedSnapshot()

	var v02 bytes.Buffer
	if err := Write(&v02, snap); err != nil {
		f.Fatal(err)
	}

	// Seeds: the valid encoding, the same body behind the retired v01
	// magic, truncations, flipped section lengths, bogus varints, and
	// empty/garbage inputs.
	f.Add(v02.Bytes())
	f.Add(append([]byte("SNAPSv01"), v02.Bytes()[len(magicV02):]...))
	f.Add(v02.Bytes()[:len(v02.Bytes())/2])
	f.Add(v02.Bytes()[:12])
	f.Add([]byte("SNAPSBINv02"))
	f.Add([]byte("SNAPSv01"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), v02.Bytes()...)
	if len(corrupt) > 13 {
		corrupt[12] ^= 0x80 // flip a section-length varint continuation bit
	}
	f.Add(corrupt)
	hostile := append([]byte("SNAPSBINv02"), 1)
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the reader accepts must also pass structural validation
		// and re-encode without error.
		if verr := validate(s.Dataset, s.Clusters); verr != nil {
			t.Fatalf("Read accepted a snapshot that fails validate: %v", verr)
		}
		var out bytes.Buffer
		if werr := Write(&out, s); werr != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", werr)
		}
	})
}
