package ingest

import (
	"fmt"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/constraint"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
)

// constraintViolations checks the paper's link and temporal constraints
// (Sec. 4.2.2) in a published clustering, read off the records themselves
// rather than through the validator the resolver merges by: per cluster at
// most one birth and one death, one record per certificate, one birth year
// every member's role allows, nothing that needs the person alive after
// the death, and one gender.
func constraintViolations(d *model.Dataset, clusters [][]model.RecordID) []string {
	var out []string
	for _, cl := range clusters {
		var (
			roles    [model.NumRoles]int
			certs    = map[model.CertID]bool{}
			lo, hi   = -1 << 30, 1 << 30
			death    *model.Record
			gender   = model.GenderUnknown
			conflict bool
		)
		for _, id := range cl {
			r := d.Record(id)
			roles[r.Role]++
			if certs[r.Cert] {
				out = append(out, fmt.Sprintf("cluster of record %d: two records of certificate %d", cl[0], r.Cert))
			}
			certs[r.Cert] = true
			rlo, rhi := constraint.BirthYearInterval(r)
			lo, hi = max(lo, rlo), min(hi, rhi)
			if r.Role == model.Dd {
				death = r
			}
			g := r.Gender
			if g == model.GenderUnknown {
				g = model.RoleGender(r.Role)
			}
			if g != model.GenderUnknown {
				conflict = conflict || (gender != model.GenderUnknown && g != gender)
				gender = g
			}
		}
		if roles[model.Bb] > 1 || roles[model.Dd] > 1 {
			out = append(out, fmt.Sprintf("cluster of record %d: %d births, %d deaths", cl[0], roles[model.Bb], roles[model.Dd]))
		}
		if lo > hi {
			out = append(out, fmt.Sprintf("cluster of record %d: no birth year fits every member", cl[0]))
		}
		if conflict {
			out = append(out, fmt.Sprintf("cluster of record %d: both genders", cl[0]))
		}
		if death == nil {
			continue
		}
		for _, id := range cl {
			switch r := d.Record(id); r.Role {
			case model.Bb, model.Bm, model.Mm, model.Mf:
				if r.Year > death.Year {
					out = append(out, fmt.Sprintf("cluster of record %d: %v in %d after the death in %d", cl[0], r.Role, r.Year, death.Year))
				}
			}
		}
	}
	return out
}

// TestPublishedClustersHoldConstraints: whatever the blocking profile, and
// however many flushes later, no published entity breaks a constraint the
// paper makes a condition of merging.
func TestPublishedClustersHoldConstraints(t *testing.T) {
	d := scaleDataset(3000, 0)
	check := func(what string, d *model.Dataset, st *er.EntityStore) {
		t.Helper()
		clusters := st.Clusters()
		merged := 0
		for _, cl := range clusters {
			if len(cl) > 1 {
				merged++
			}
		}
		if merged == 0 {
			t.Fatalf("%s: no cluster holds two records; nothing was checked", what)
		}
		if v := constraintViolations(d, clusters); len(v) > 0 {
			t.Errorf("%s: %d constraint violations in %d clusters, first: %s", what, len(v), len(clusters), v[0])
		}
	}
	scaleStore := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
	check("DS-3k, ScaleLSHConfig", d, scaleStore)
	check("DS-3k, DefaultLSHConfig", d,
		er.RunLSH(d, blocking.DefaultLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store)

	cfg := manualConfig()
	p, err := NewPipeline(NewServing(d, scaleStore, 2, cfg), nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const flushes, perFlush = 8, 16
	batch := holdoutCerts(flushes*perFlush + 16)
	if len(batch) < flushes*perFlush {
		t.Fatalf("hold-out stream has %d valid certificates, want %d", len(batch), flushes*perFlush)
	}
	for i := 0; i < flushes*perFlush; i++ {
		if err := p.Submit(batch[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perFlush == 0 {
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sv := p.Serving()
	if got := p.Status().Flushes; got != flushes {
		t.Fatalf("%d flushes, want %d", got, flushes)
	}
	check(fmt.Sprintf("after %d flushes of %d", flushes, perFlush), sv.Dataset, sv.Store)
}
