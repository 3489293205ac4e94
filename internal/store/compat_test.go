package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

// assertSnapshotsEqual compares every persisted field of two snapshots.
func assertSnapshotsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Dataset.Name != want.Dataset.Name {
		t.Errorf("name %q vs %q", got.Dataset.Name, want.Dataset.Name)
	}
	if len(got.Dataset.Records) != len(want.Dataset.Records) {
		t.Fatalf("records %d vs %d", len(got.Dataset.Records), len(want.Dataset.Records))
	}
	for i := range want.Dataset.Records {
		if got.Dataset.Records[i] != want.Dataset.Records[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got.Dataset.Records[i], want.Dataset.Records[i])
		}
	}
	if len(got.Dataset.Certificates) != len(want.Dataset.Certificates) {
		t.Fatalf("certificates %d vs %d", len(got.Dataset.Certificates), len(want.Dataset.Certificates))
	}
	for i := range want.Dataset.Certificates {
		a, b := &want.Dataset.Certificates[i], &got.Dataset.Certificates[i]
		if a.ID != b.ID || a.Type != b.Type || a.Year != b.Year || a.Cause != b.Cause || a.Age != b.Age {
			t.Fatalf("certificate %d scalar fields differ", i)
		}
		if !reflect.DeepEqual(a.Roles, b.Roles) {
			t.Fatalf("certificate %d roles differ", i)
		}
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatal("clusters differ")
	}
}

// TestV01MagicRejected pins what became of the retired gob format: its
// magic is one more unknown header, answered with the bad-magic error that
// names the one format there is — never a panic, never a decode attempt.
func TestV01MagicRejected(t *testing.T) {
	_, err := Read(strings.NewReader("SNAPSv01 and whatever a gob stream held"))
	if err == nil {
		t.Fatal("SNAPSv01 stream accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "bad magic") || !strings.HasSuffix(msg, `(want "SNAPSBINv02")`) {
		t.Fatalf("error %q: want bad magic naming SNAPSBINv02 as the only format", msg)
	}
}

// TestSnapshotGoldenEquivalence is the round-trip determinism guard: a
// data set saved as a v02 snapshot and reloaded must produce byte-identical
// ER output (re-running resolution from scratch on the reloaded records)
// and byte-identical search results (full result lists, scores included)
// vs. the in-memory original. The diet is representation-only.
func TestSnapshotGoldenEquivalence(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	snap := FromResult(p.Dataset, pr.Result.Store)

	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, got, snap)

	// ER from scratch over the reloaded records matches ER over the
	// original records cluster for cluster.
	rerun := er.Run(got.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	if !reflect.DeepEqual(rerun.Result.Store.Clusters(), pr.Result.Store.Clusters()) {
		t.Fatal("ER output differs after snapshot round trip")
	}

	// Search over the restored pedigree graph matches search over the
	// original, result for result.
	origG := pedigree.Build(snap.Dataset, snap.Restore())
	gotG := pedigree.Build(got.Dataset, got.Restore())
	origK, origS := index.Build(origG, 0.5)
	gotK, gotS := index.Build(gotG, 0.5)
	origE := query.NewEngine(origG, origK, origS)
	gotE := query.NewEngine(gotG, gotK, gotS)

	queries := goldenQueries(p.Dataset)
	for qi, q := range queries {
		a := origE.Search(q)
		b := gotE.Search(q)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d (%+v): results differ\n original %v\n restored %v", qi, q, a, b)
		}
	}
}

// goldenQueries derives a deterministic query mix from the data set: the
// first distinct name pairs per role, plus year-bounded and location
// variants.
func goldenQueries(d *model.Dataset) []query.Query {
	var qs []query.Query
	seen := map[string]bool{}
	for i := range d.Records {
		rec := &d.Records[i]
		if rec.First == 0 || rec.Sur == 0 {
			continue
		}
		key := rec.FirstName() + "|" + rec.Surname()
		if seen[key] {
			continue
		}
		seen[key] = true
		q := query.Query{FirstName: rec.FirstName(), Surname: rec.Surname()}
		switch len(qs) % 3 {
		case 1:
			q.Gender = rec.Gender
			q.YearFrom, q.YearTo = rec.Year-5, rec.Year+5
		case 2:
			q.Location = rec.Address()
		}
		qs = append(qs, q)
		if len(qs) >= 25 {
			break
		}
	}
	return qs
}

// TestV02TruncationsError feeds every prefix of a valid v02 stream to the
// reader: all must fail cleanly, none may panic.
func TestV02TruncationsError(t *testing.T) {
	snap := resolvedSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Step through prefixes; fine-grained near the front, sparser later.
	step := 1
	for n := 0; n < len(data)-1; n += step {
		if n > 256 {
			step = 997
		}
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", n, len(data))
		}
	}
}

// TestV02CorruptHeadersError flips section tags and lengths.
func TestV02CorruptHeadersError(t *testing.T) {
	snap := resolvedSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for _, mut := range []struct {
		name string
		at   int
		b    byte
	}{
		{"magic-version", 9, '9'},
		{"first-tag", 11, 42},
		{"first-length", 12, 0xFF},
	} {
		data := append([]byte(nil), orig...)
		data[mut.at] = mut.b
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Fatalf("mutation %s accepted", mut.name)
		}
	}
}

// countingReader tracks how many bytes a reader consumed, to bound the
// work a hostile stream can cause.
type countingReader struct {
	data []byte
	pos  int
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.data) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, c.data[c.pos:])
	c.pos += n
	return n, nil
}

// TestV02HostileLengthsDoNotOverAllocate claims absurd section lengths and
// counts with almost no payload: the reader must reject them without
// allocating in proportion to the claims. The allocation ceiling is
// enforced by running under a tight memory budget via testing's allocation
// counter.
func TestV02HostileLengthsDoNotOverAllocate(t *testing.T) {
	// magic + tagMeta with claimed 2^60-byte body.
	hostile := append([]byte(nil), magicV02...)
	hostile = append(hostile, tagMeta)
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10) // uvarint 2^60
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // string len claim
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Read(bytes.NewReader(hostile)); err == nil {
			t.Fatal("hostile stream accepted")
		}
	})
	// A handful of small fixed allocations are fine; slabs sized from the
	// hostile claims are not.
	if allocs > 64 {
		t.Fatalf("hostile stream caused %.0f allocations", allocs)
	}
}
