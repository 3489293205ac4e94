package snaps

// Full-system integration test: one pass through everything a deployment
// does — simulate, resolve, evaluate, build the pedigree graph and indexes,
// query, extract and render a pedigree, export GEDCOM, persist and restore
// a snapshot, apply expert feedback, extend incrementally, and anonymise.

import (
	"bytes"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/anonymize"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/feedback"
	"github.com/snaps/snaps/internal/gedcom"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/store"
)

func TestFullSystemIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}

	// 1. Simulate and resolve.
	pop := dataset.Generate(dataset.IOS().Scaled(0.1).WithCensus())
	d := pop.Dataset
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	rp := model.MakeRolePair(model.Bm, model.Bm)
	q := eval.QualityOf(eval.Compare(pr.Result.Store.MatchPairs(rp), d.TruePairs(rp)))
	t.Logf("resolution quality (Bm-Bm): %v", q)
	if q.Precision < 85 || q.Recall < 70 {
		t.Fatalf("resolution quality too low for the rest of the flow: %v", q)
	}

	// 2. Pedigree graph, indexes, query.
	g := pedigree.Build(d, pr.Result.Store)
	k, sim := index.Build(g, 0.5)
	engine := query.NewEngine(g, k, sim)
	var probe *pedigree.Node
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.Records) >= 5 && len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			probe = n
			break
		}
	}
	if probe == nil {
		t.Fatal("no well-connected entity")
	}
	results := engine.Search(query.Query{FirstName: probe.FirstNames[0], Surname: probe.Surnames[0]})
	if len(results) == 0 {
		t.Fatal("no query results")
	}
	found := false
	for _, r := range results {
		if r.Entity == probe.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("probe entity not retrieved by its own name")
	}

	// 3. Extract, render, and export the pedigree.
	ped := g.Extract(probe.ID, 2)
	if len(ped.Members) < 2 {
		t.Fatal("pedigree has no relatives")
	}
	if txt := g.RenderText(ped); !strings.Contains(txt, probe.DisplayName()) {
		t.Fatal("text rendering lost the focus")
	}
	if dot := g.RenderDot(ped); !strings.HasPrefix(dot, "digraph pedigree {") {
		t.Fatal("bad dot rendering")
	}
	var ged bytes.Buffer
	if err := gedcom.ExportPedigree(&ged, g, ped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ged.String(), " INDI\n") {
		t.Fatal("gedcom export empty")
	}

	// 4. Persist, restore, and verify the clustering survives.
	var snapBuf bytes.Buffer
	if err := store.Write(&snapBuf, store.FromResult(d, pr.Result.Store)); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Read(&snapBuf)
	if err != nil {
		t.Fatal(err)
	}
	restored := snap.Restore()
	if len(restored.MatchPairs(rp)) != len(pr.Result.Store.MatchPairs(rp)) {
		t.Fatal("restored clustering differs")
	}

	// 5. Expert feedback round trip on the restored store.
	journal := feedback.NewJournal()
	recs := restored.Records(restored.EntityOf(probe.Records[0]))
	journal.Record(recs[0], recs[1], feedback.Reject)
	unlinked, _ := feedback.Apply(restored, journal)
	if unlinked != 1 {
		t.Fatalf("feedback rejection not applied: %d", unlinked)
	}
	if len(feedback.Violations(restored, journal)) != 0 {
		t.Fatal("feedback still violated after apply")
	}

	// 6. Incremental extension with a fresh death certificate.
	var person *dataset.Person
	for i := range pop.Persons {
		p := &pop.Persons[i]
		if p.DeathYear == 0 && p.Spouse != model.NoPerson && p.BirthYear < 1870 {
			person = p
			break
		}
	}
	if person != nil {
		firstNew := model.RecordID(len(d.Records))
		certID := model.CertID(len(d.Certificates))
		spouse := pop.Person(person.Spouse)
		d.Records = append(d.Records,
			model.Record{
				ID: firstNew, Cert: certID, Role: model.Dd, Gender: person.Gender,
				First: model.Intern(person.FirstName), Sur: model.Intern(person.Surname),
				Addr: model.Intern(person.Address), Year: 1902, Truth: person.ID,
				BirthHint: person.BirthYear,
			},
			model.Record{
				ID: firstNew + 1, Cert: certID, Role: model.Ds, Gender: spouse.Gender,
				First: model.Intern(spouse.FirstName), Sur: model.Intern(spouse.Surname),
				Addr: model.Intern(spouse.Address), Year: 1902, Truth: spouse.ID,
			},
		)
		d.Certificates = append(d.Certificates, model.Certificate{
			ID: certID, Type: model.Death, Year: 1902, Age: 1902 - person.BirthYear,
			Cause: "old age",
			Roles: map[model.Role]model.RecordID{model.Dd: firstNew, model.Ds: firstNew + 1},
		})
		er.Extend(d, pr.Result.Store, firstNew, depgraph.DefaultConfig(), er.DefaultConfig())
		// The extension must never corrupt the store's invariants.
		for _, e := range pr.Result.Store.Entities() {
			if len(pr.Result.Store.Records(e)) < 2 {
				t.Fatal("extension produced an undersized entity")
			}
		}
	}

	// 7. Anonymise and re-query with public names only.
	anonD, mapping := anonymize.Anonymize(d, -37)
	if len(mapping) == 0 {
		t.Fatal("empty anonymisation mapping")
	}
	anonPr := er.Run(anonD, depgraph.DefaultConfig(), er.DefaultConfig())
	anonG := pedigree.Build(anonD, anonPr.Result.Store)
	ak, asim := index.Build(anonG, 0.5)
	anonEngine := query.NewEngine(anonG, ak, asim)
	anonProbe := &anonG.Nodes[0]
	for i := range anonG.Nodes {
		n := &anonG.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			anonProbe = n
			break
		}
	}
	if rs := anonEngine.Search(query.Query{
		FirstName: anonProbe.FirstNames[0], Surname: anonProbe.Surnames[0],
	}); len(rs) == 0 {
		t.Fatal("anonymised deployment cannot answer queries")
	}
}
