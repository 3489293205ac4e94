package gedcom

import (
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

// fixtureGraph builds a resolved two-birth family (parents shared, two
// children) as a pedigree graph.
func fixtureGraph(t *testing.T) *pedigree.Graph {
	t.Helper()
	d := &model.Dataset{Name: "gedcom"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Year: year, Truth: model.NoPerson,
		})
		return id
	}
	add(model.Bb, 0, "john", "macrae", 1870, model.Male)
	add(model.Bm, 0, "kirsty", "macrae", 1870, model.Female)
	add(model.Bf, 0, "hector", "macrae", 1870, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 0, model.Bm: 1, model.Bf: 2},
	})
	add(model.Bb, 1, "flora", "macrae", 1872, model.Female)
	add(model.Bm, 1, "kirsty", "macrae", 1872, model.Female)
	add(model.Bf, 1, "hector", "macrae", 1872, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Birth, Year: 1872, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 3, model.Bm: 4, model.Bf: 5},
	})
	store := er.NewEntityStore(d)
	store.Link(1, 4) // mothers
	store.Link(2, 5) // fathers
	return pedigree.Build(d, store)
}

// exportAll writes the whole graph through ExportPedigree, every node a
// member.
func exportAll(t *testing.T, g *pedigree.Graph) string {
	t.Helper()
	p := &pedigree.Pedigree{Members: map[pedigree.NodeID]int{}}
	for i := range g.Nodes {
		p.Members[g.Nodes[i].ID] = 0
	}
	var sb strings.Builder
	if err := ExportPedigree(&sb, g, p); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestExportStructure(t *testing.T) {
	g := fixtureGraph(t)
	out := exportAll(t, g)

	if !strings.HasPrefix(out, "0 HEAD\n") || !strings.HasSuffix(out, "0 TRLR\n") {
		t.Fatal("missing GEDCOM envelope")
	}
	if !strings.Contains(out, "2 VERS 5.5.1") {
		t.Error("missing version")
	}
	// Four individuals: mother, father, two children.
	if n := strings.Count(out, " INDI\n"); n != 4 {
		t.Errorf("INDI records = %d, want 4", n)
	}
	// One family with husband, wife, and two children.
	if n := strings.Count(out, " FAM\n"); n != 1 {
		t.Errorf("FAM records = %d, want 1", n)
	}
	if strings.Count(out, "1 CHIL ") != 2 {
		t.Error("family should list both children")
	}
	if !strings.Contains(out, "1 HUSB ") || !strings.Contains(out, "1 WIFE ") {
		t.Error("family missing spouses")
	}
	if !strings.Contains(out, "1 NAME kirsty /MACRAE/") {
		t.Error("missing formatted name")
	}
	if !strings.Contains(out, "1 SEX F") || !strings.Contains(out, "1 SEX M") {
		t.Error("missing sexes")
	}
	if !strings.Contains(out, "1 BIRT\n2 DATE 1870") {
		t.Error("missing birth event")
	}
}

func TestExportBackReferencesConsistent(t *testing.T) {
	g := fixtureGraph(t)
	out := exportAll(t, g)
	// Every FAMS/FAMC reference must point at an emitted family, and every
	// HUSB/WIFE/CHIL at an emitted individual.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			continue
		}
		switch fields[1] {
		case "FAMS", "FAMC":
			if !strings.Contains(out, "0 "+fields[2]+" FAM") {
				t.Errorf("dangling family reference %q", fields[2])
			}
		case "HUSB", "WIFE", "CHIL":
			if !strings.Contains(out, "0 "+fields[2]+" INDI") {
				t.Errorf("dangling individual reference %q", fields[2])
			}
		}
	}
}

func TestExportPedigreeSubset(t *testing.T) {
	g := fixtureGraph(t)
	// Focus on the mother, one generation: parents + children, but the
	// export covers only pedigree members.
	mother, _ := g.NodeOfRecord(1)
	p := g.Extract(mother, 1)
	var sb strings.Builder
	if err := ExportPedigree(&sb, g, p); err != nil {
		t.Fatal(err)
	}
	n := strings.Count(sb.String(), " INDI\n")
	if n != len(p.Members) {
		t.Errorf("INDI records = %d, want %d members", n, len(p.Members))
	}
}

func TestExportOnResolvedSample(t *testing.T) {
	pop := dataset.Generate(dataset.IOS().Scaled(0.05))
	pr := er.Run(pop.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(pop.Dataset, pr.Result.Store)
	out := exportAll(t, g)
	if strings.Count(out, " INDI\n") != len(g.Nodes) {
		t.Errorf("expected one INDI per entity")
	}
	if !strings.Contains(out, " FAM\n") {
		t.Error("no families exported from a resolved sample")
	}
}
