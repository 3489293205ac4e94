// Package store persists the outputs of the SNAPS offline phase — the data
// set, the resolved entity clusters, and the pedigree graph — so a server
// can start without re-running entity resolution. There is one wire
// format, SNAPSBINv02: the compact length-prefixed binary format of
// binary.go — a per-file symbol table plus varint-coded records,
// certificates, and clusters — behind a magic header, so Load rejects any
// other file (the gob-based SNAPSv01 of early versions included) instead of
// misinterpreting its bytes.
package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/symbol"
)

// Footprint gauges: how much resident memory the loaded snapshot's data
// costs, amortised per record. Set on every successful Read/Load, so the
// memory-diet trajectory is visible on /metrics, not just in bench JSON.
var (
	mStoreRecords = obs.Default.Gauge("snaps_store_records",
		"Records in the most recently loaded or saved snapshot.")
	mStoreBytesPerRecord = obs.Default.FloatGauge("snaps_store_bytes_per_record",
		"Estimated resident data bytes per record of the most recent snapshot (records, certificates, clusters, and the amortised symbol table).")
)

// Snapshot is everything the online component needs.
type Snapshot struct {
	Dataset  *model.Dataset
	Clusters [][]model.RecordID // resolved entities as record-id clusters
}

// FromResult captures a snapshot from a pipeline result.
func FromResult(d *model.Dataset, s *er.EntityStore) *Snapshot {
	return &Snapshot{Dataset: d, Clusters: s.Clusters()}
}

// Restore rebuilds an entity store from the snapshot's clusters. Cluster
// links are rebuilt as cliques: the persisted clusters passed refinement
// before they were saved, and a clique's density of 1 guarantees that a
// later REF pass (for example during an incremental er.Extend) never peels
// a restored cluster apart. Clusters are small (tens of records), so the
// quadratic edge count is negligible.
func (s *Snapshot) Restore() *er.EntityStore {
	store := er.NewEntityStore(s.Dataset)
	for _, cluster := range s.Clusters {
		for i := 0; i < len(cluster); i++ {
			for j := i + 1; j < len(cluster); j++ {
				store.Link(cluster[i], cluster[j])
			}
		}
	}
	return store
}

// Write serialises the snapshot in the compact v02 binary format.
func Write(dst io.Writer, s *Snapshot) error {
	w := bufio.NewWriter(dst)
	if err := writeBinary(w, s); err != nil {
		return err
	}
	return w.Flush()
}

// Read deserialises a v02 snapshot.
func Read(src io.Reader) (*Snapshot, error) {
	r := bufio.NewReader(src)
	got := make([]byte, len(magicV02))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if !bytes.Equal(got, magicV02) {
		return nil, fmt.Errorf("store: bad magic %q (want %q)", got, magicV02)
	}
	s, err := readBinary(r)
	if err != nil {
		return nil, err
	}
	recordFootprint(s)
	return s, nil
}

// recordFootprint publishes the loaded snapshot's resident data footprint
// on the store gauges.
func recordFootprint(s *Snapshot) {
	n := len(s.Dataset.Records)
	mStoreRecords.Set(int64(n))
	if n > 0 {
		mStoreBytesPerRecord.Set(float64(FootprintBytes(s.Dataset, s.Clusters)) / float64(n))
	}
}

// validate rejects structurally broken snapshots (out-of-range ids,
// overlapping clusters) so corruption fails fast instead of panicking later.
func validate(d *model.Dataset, clusters [][]model.RecordID) error {
	n := model.RecordID(len(d.Records))
	for i := range d.Records {
		if d.Records[i].ID != model.RecordID(i) {
			return fmt.Errorf("store: record %d has id %d", i, d.Records[i].ID)
		}
	}
	for _, c := range d.Certificates {
		for role, rec := range c.Roles {
			if rec < 0 || rec >= n {
				return fmt.Errorf("store: cert %d role %v references record %d of %d", c.ID, role, rec, n)
			}
		}
	}
	seen := make([]bool, n)
	for ci, cluster := range clusters {
		if len(cluster) < 2 {
			return fmt.Errorf("store: cluster %d has %d records", ci, len(cluster))
		}
		for _, rec := range cluster {
			if rec < 0 || rec >= n {
				return fmt.Errorf("store: cluster %d references record %d of %d", ci, rec, n)
			}
			if seen[rec] {
				return fmt.Errorf("store: record %d appears in two clusters", rec)
			}
			seen[rec] = true
		}
	}
	return nil
}

// FootprintBytes estimates the resident heap bytes of a loaded snapshot's
// data: the record slab, certificates with their role maps, clusters, and
// the full interned-string table (an upper bound on this data set's share
// of it — the table is process-global and amortised across every clone and
// generation referencing it). Divided by the record count it is the
// snaps_store_bytes_per_record gauge.
func FootprintBytes(d *model.Dataset, clusters [][]model.RecordID) int64 {
	const (
		recordSize  = 64 // unsafe.Sizeof(model.Record{}) with padding
		certBase    = 64 // Certificate struct + map header overhead
		roleEntry   = 16 // map bucket share per role entry
		sliceHeader = 24
	)
	total := int64(len(d.Records)) * recordSize
	for i := range d.Certificates {
		total += certBase + int64(len(d.Certificates[i].Roles))*roleEntry + int64(len(d.Certificates[i].Cause))
	}
	for _, c := range clusters {
		total += sliceHeader + 4*int64(len(c))
	}
	total += symbolTableBytes()
	return total
}

// symbolTableBytes reports the resident cost of the global symbol table:
// backing string bytes plus a string header per entry.
func symbolTableBytes() int64 {
	return symbol.Bytes() + 16*int64(symbol.Len())
}

// Save writes the snapshot to a file in the v02 format, atomically via a
// temporary sibling.
func Save(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a snapshot from a file.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
