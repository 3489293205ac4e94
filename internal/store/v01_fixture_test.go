package store

import (
	"bufio"
	"encoding/gob"
	"io"

	"github.com/snaps/snaps/internal/model"
)

// toWire converts a record to its v01 gob shape.
func toWire(r *model.Record) wireRecord {
	return wireRecord{
		ID: r.ID, Cert: r.Cert, Role: r.Role, Gender: r.Gender,
		FirstName: r.FirstName(), Surname: r.Surname(),
		Address: r.Address(), Occupation: r.Occupation(),
		Year: r.Year, Lat: r.Lat, Lon: r.Lon,
		BirthHint: r.BirthHint, Truth: r.Truth,
	}
}

// writeV01 serialises the snapshot in the legacy gob format: the fixture
// writer behind the v01 compat and fuzz tests. Production code only reads
// v01.
func writeV01(dst io.Writer, s *Snapshot) error {
	w := bufio.NewWriter(dst)
	if _, err := w.Write(magicV01[:]); err != nil {
		return err
	}
	payload := wire{
		Name:     s.Dataset.Name,
		Clusters: s.Clusters,
	}
	payload.Records = make([]wireRecord, len(s.Dataset.Records))
	for i := range s.Dataset.Records {
		payload.Records[i] = toWire(&s.Dataset.Records[i])
	}
	for i := range s.Dataset.Certificates {
		c := &s.Dataset.Certificates[i]
		wc := wireCert{ID: c.ID, Type: c.Type, Year: c.Year, Cause: c.Cause, Age: c.Age}
		for role := model.Role(0); role < model.NumRoles; role++ {
			if rec, ok := c.Roles[role]; ok {
				wc.Roles = append(wc.Roles, wireRole{Role: role, Rec: rec})
			}
		}
		payload.Certificates = append(payload.Certificates, wc)
	}
	if err := gob.NewEncoder(w).Encode(&payload); err != nil {
		return err
	}
	return w.Flush()
}
