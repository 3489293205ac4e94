package pedigree

import (
	"fmt"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
)

// familyFixture builds a tiny resolved world: mother, father, and two
// children (one of whom died), with the parents' records linked into
// entities.
func familyFixture(t *testing.T) (*model.Dataset, *er.EntityStore) {
	t.Helper()
	d := &model.Dataset{Name: "fixture"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender, truth model.PersonID) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Addr: model.Intern("5 uig"), Year: year, Truth: truth,
		})
		return id
	}
	// Birth of child A, 1870.
	a := add(model.Bb, 0, "john", "macrae", 1870, model.Male, 10)
	m1 := add(model.Bm, 0, "kirsty", "macrae", 1870, model.Female, 11)
	f1 := add(model.Bf, 0, "hector", "macrae", 1870, model.Male, 12)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: a, model.Bm: m1, model.Bf: f1},
	})
	// Birth of child B, 1872.
	b := add(model.Bb, 1, "flora", "macrae", 1872, model.Female, 13)
	m2 := add(model.Bm, 1, "kirsty", "macrae", 1872, model.Female, 11)
	f2 := add(model.Bf, 1, "hector", "macrae", 1872, model.Male, 12)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Birth, Year: 1872, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: b, model.Bm: m2, model.Bf: f2},
	})
	// Death of child A, 1874.
	dd := add(model.Dd, 2, "john", "macrae", 1874, model.Male, 10)
	m3 := add(model.Dm, 2, "kirsty", "macrae", 1874, model.Female, 11)
	f3 := add(model.Df, 2, "hector", "macrae", 1874, model.Male, 12)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 2, Type: model.Death, Year: 1874, Age: 4, Cause: "measles",
		Roles: map[model.Role]model.RecordID{model.Dd: dd, model.Dm: m3, model.Df: f3},
	})

	store := er.NewEntityStore(d)
	store.Link(m1, m2)
	store.Link(m2, m3)
	store.Link(f1, f2)
	store.Link(f2, f3)
	store.Link(a, dd)
	return d, store
}

func TestBuildNodesAndSingletons(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	// Entities: mother, father, child A; singleton: child B (one record).
	if len(g.Nodes) != 4 {
		t.Fatalf("pedigree nodes = %d, want 4", len(g.Nodes))
	}
	for i := range d.Records {
		if _, ok := g.NodeOfRecord(d.Records[i].ID); !ok {
			t.Fatalf("record %d not mapped to a pedigree node", i)
		}
	}
}

func TestNodeAggregation(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	n, _ := g.NodeOfRecord(0) // child A
	node := g.Node(n)
	if node.DisplayName() != "john macrae" {
		t.Errorf("display name = %q", node.DisplayName())
	}
	if node.BirthYear != 1870 || node.DeathYear != 1874 {
		t.Errorf("lifespan = %d-%d, want 1870-1874", node.BirthYear, node.DeathYear)
	}
	if node.Gender != model.Male {
		t.Errorf("gender = %v", node.Gender)
	}
	if node.MinYear != 1870 || node.MaxYear != 1874 {
		t.Errorf("year range = %d..%d", node.MinYear, node.MaxYear)
	}
}

func TestEdgesFollowCertRelations(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	mother, _ := g.NodeOfRecord(1)
	childA, _ := g.NodeOfRecord(0)
	hasEdge := false
	for _, e := range g.Node(mother).Edges {
		if e.To == childA && e.Rel == model.MotherOf {
			hasEdge = true
		}
	}
	if !hasEdge {
		t.Error("missing MotherOf edge from mother entity to child A entity")
	}
}

func TestExtractTwoGenerations(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	childA, _ := g.NodeOfRecord(0)
	p := g.Extract(childA, 2)
	// Child A's pedigree: parents at hop 1, sibling at hop 2 (via parents).
	if p.Members[childA] != 0 {
		t.Error("focus must be hop 0")
	}
	mother, _ := g.NodeOfRecord(1)
	if p.Members[mother] != 1 {
		t.Errorf("mother at hop %d, want 1", p.Members[mother])
	}
	childB, _ := g.NodeOfRecord(3)
	if p.Members[childB] != 2 {
		t.Errorf("sibling at hop %d, want 2", p.Members[childB])
	}
	if len(p.Edges) == 0 {
		t.Error("pedigree should include relationship edges")
	}
}

func TestExtractOneGenerationExcludesSibling(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	childA, _ := g.NodeOfRecord(0)
	p := g.Extract(childA, 1)
	childB, _ := g.NodeOfRecord(3)
	if _, ok := p.Members[childB]; ok {
		t.Error("sibling is two hops away and must be excluded at g=1")
	}
}

func TestRenderText(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	mother, _ := g.NodeOfRecord(1)
	p := g.Extract(mother, 2)
	text := g.RenderText(p)
	if !strings.Contains(text, "kirsty macrae") {
		t.Errorf("render missing focus name:\n%s", text)
	}
	if !strings.Contains(text, "child: john macrae") {
		t.Errorf("render missing child:\n%s", text)
	}
	if !strings.Contains(text, "child: flora macrae") {
		t.Errorf("render missing second child:\n%s", text)
	}
	if !strings.Contains(text, "(1870-1874)") {
		t.Errorf("render missing lifespan:\n%s", text)
	}
}

func TestRenderParentsAndSpouse(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	childA, _ := g.NodeOfRecord(0)
	p := g.Extract(childA, 2)
	text := g.RenderText(p)
	if !strings.Contains(text, "parent: kirsty macrae (f)") {
		t.Errorf("render missing mother as parent:\n%s", text)
	}
	if !strings.Contains(text, "parent: hector macrae (m)") {
		t.Errorf("render missing father as parent:\n%s", text)
	}
}

func TestBuildOnResolvedSample(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.06))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := Build(p.Dataset, pr.Result.Store)
	if len(g.Nodes) == 0 {
		t.Fatal("no pedigree nodes")
	}
	// Every record is reachable.
	for i := range p.Dataset.Records {
		if _, ok := g.NodeOfRecord(p.Dataset.Records[i].ID); !ok {
			t.Fatalf("record %d unmapped", i)
		}
	}
	// Edges must reference valid nodes.
	for i := range g.Nodes {
		for _, e := range g.Nodes[i].Edges {
			if int(e.To) < 0 || int(e.To) >= len(g.Nodes) {
				t.Fatalf("edge to invalid node %d", e.To)
			}
		}
	}
	// Extraction terminates and stays bounded on a real sample.
	pdg := g.Extract(0, 2)
	if len(pdg.Members) < 1 {
		t.Fatal("empty pedigree")
	}
}

func TestRenderDot(t *testing.T) {
	d, store := familyFixture(t)
	g := Build(d, store)
	mother, _ := g.NodeOfRecord(1)
	p := g.Extract(mother, 2)
	dot := g.RenderDot(p)
	if !strings.HasPrefix(dot, "digraph pedigree {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("malformed dot output:\n%s", dot)
	}
	if !strings.Contains(dot, "kirsty macrae") {
		t.Error("dot missing focus label")
	}
	if !strings.Contains(dot, "peripheries=2") {
		t.Error("dot missing focus highlight")
	}
	if !strings.Contains(dot, "mistyrose") || !strings.Contains(dot, "lightblue") {
		t.Error("dot missing gender colours")
	}
	if !strings.Contains(dot, "->") {
		t.Error("dot missing edges")
	}
	if !strings.Contains(dot, "style=dashed") {
		t.Error("dot missing marriage edge")
	}
	// Every member node is declared exactly once.
	for id := range p.Members {
		decl := fmt.Sprintf("\n  n%d [label=", id)
		if strings.Count(dot, decl) != 1 {
			t.Errorf("node %d declared %d times", id, strings.Count(dot, decl))
		}
	}
}

// BenchmarkBuild measures Algorithm 1 alone over a resolved IOS sample,
// as a cold start and every ingest flush run it.
func BenchmarkBuild(b *testing.B) {
	p := dataset.Generate(dataset.IOS().Scaled(0.25))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = Build(p.Dataset, pr.Result.Store)
	}
}

var benchGraph *Graph
