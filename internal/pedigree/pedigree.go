// Package pedigree builds the pedigree graph G_P of Sec. 5 of the paper
// (Algorithm 1) from the resolved entities, and extracts and renders family
// pedigrees (family trees) around a chosen entity.
//
// Nodes of the pedigree graph are entities; edges carry the relationships
// motherOf, fatherOf, spouseOf, and childOf derived from co-mentions on
// certificates. Each node also aggregates the QID values of its records so
// that the keyword index and the query ranker can operate on entities.
package pedigree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/symbol"
)

// EntityID aliases the resolver's entity id inside the pedigree graph. The
// pedigree graph densifies ids, so it keeps its own node indices.
type NodeID int32

// Node is one entity in the pedigree graph with its aggregated QID values.
type Node struct {
	ID      NodeID
	Records []model.RecordID

	// Aggregated values (distinct, most frequent first).
	FirstNames []string
	Surnames   []string
	Locations  []string
	Gender     model.Gender

	// BirthYear and DeathYear when known from Bb/Dd records, else 0.
	BirthYear, DeathYear int
	// YearRange spans all event years of the entity's records.
	MinYear, MaxYear int

	// Edges to related entities.
	Edges []Edge
}

// Edge is a relationship between two entities.
type Edge struct {
	To  NodeID
	Rel model.Relationship
}

// Graph is the pedigree graph G_P.
type Graph struct {
	Dataset *model.Dataset
	Nodes   []Node

	// nodeOf maps a record to its pedigree node, -1 when the record's
	// entity was a singleton that was not materialised.
	nodeOf []NodeID
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

// NodeOfRecord returns the pedigree node containing the record, if any.
func (g *Graph) NodeOfRecord(r model.RecordID) (NodeID, bool) {
	id := g.nodeOf[r]
	return id, id >= 0
}

// Build implements Algorithm 1: it creates a node per resolved entity
// (singleton records included, so every individual is searchable), then
// adds relationship edges between entities whose records co-occur on a
// certificate with that relationship.
func Build(d *model.Dataset, store *er.EntityStore) *Graph {
	defer obs.StartStage("pedigree_build").Stop()
	g := &Graph{Dataset: d, nodeOf: make([]NodeID, len(d.Records))}
	for i := range g.nodeOf {
		g.nodeOf[i] = -1
	}

	// Lines 2-6: one node per entity. Singleton (unlinked) records become
	// single-record entities so their people remain searchable.
	addNode := func(records []model.RecordID) {
		id := NodeID(len(g.Nodes))
		n := Node{ID: id, Records: append([]model.RecordID(nil), records...)}
		for _, r := range records {
			g.nodeOf[r] = id
		}
		g.Nodes = append(g.Nodes, n)
	}
	for _, e := range store.Entities() {
		addNode(store.Records(e))
	}
	for i := range d.Records {
		if g.nodeOf[i] == -1 {
			addNode([]model.RecordID{d.Records[i].ID})
		}
	}
	for i := range g.Nodes {
		g.aggregate(&g.Nodes[i])
	}

	// Lines 7-15: edges from certificate co-mentions.
	type edgeKey struct {
		from, to NodeID
		rel      model.Relationship
	}
	seen := map[edgeKey]bool{}
	for ci := range d.Certificates {
		cert := &d.Certificates[ci]
		for _, cr := range model.RelationsFor(cert.Type) {
			fromRec, okF := cert.Roles[cr.From]
			toRec, okT := cert.Roles[cr.To]
			if !okF || !okT {
				continue
			}
			from, to := g.nodeOf[fromRec], g.nodeOf[toRec]
			if from < 0 || to < 0 || from == to {
				continue
			}
			k := edgeKey{from, to, cr.Rel}
			if seen[k] {
				continue
			}
			seen[k] = true
			g.Nodes[from].Edges = append(g.Nodes[from].Edges, Edge{To: to, Rel: cr.Rel})
		}
	}
	for i := range g.Nodes {
		es := g.Nodes[i].Edges
		sort.Slice(es, func(a, b int) bool {
			if es[a].To != es[b].To {
				return es[a].To < es[b].To
			}
			return es[a].Rel < es[b].Rel
		})
	}
	return g
}

// aggregate fills a node's value summaries from its records.
func (g *Graph) aggregate(n *Node) {
	var first, sur, loc valueCounts
	n.MinYear, n.MaxYear = 1<<30, 0
	for _, rid := range n.Records {
		rec := g.Dataset.Record(rid)
		first.add(rec.First)
		sur.add(rec.Sur)
		loc.add(rec.Addr)
		if rec.Gender != model.GenderUnknown {
			n.Gender = rec.Gender
		} else if rg := model.RoleGender(rec.Role); rg != model.GenderUnknown && n.Gender == model.GenderUnknown {
			n.Gender = rg
		}
		if rec.Year != 0 {
			if rec.Year < n.MinYear {
				n.MinYear = rec.Year
			}
			if rec.Year > n.MaxYear {
				n.MaxYear = rec.Year
			}
		}
		switch rec.Role {
		case model.Bb:
			n.BirthYear = rec.Year
		case model.Dd:
			n.DeathYear = rec.Year
		}
	}
	if n.MinYear == 1<<30 {
		n.MinYear = 0
	}
	n.FirstNames = first.ranked()
	n.Surnames = sur.ranked()
	n.Locations = loc.ranked()
}

// valueCount is one distinct value symbol of an attribute and the number
// of an entity's records carrying it.
type valueCount struct {
	v model.Sym
	c int
}

// valueCounts counts the distinct values of one attribute across an
// entity's records. Entities hold a handful of records, so a linear scan
// serves better than a map.
type valueCounts []valueCount

func (vc *valueCounts) add(v model.Sym) {
	if v == 0 {
		return
	}
	for i := range *vc {
		if (*vc)[i].v == v {
			(*vc)[i].c++
			return
		}
	}
	*vc = append(*vc, valueCount{v, 1})
}

// ranked returns the values as strings, most frequent first, ties in
// string order.
func (vc valueCounts) ranked() []string {
	slices.SortFunc(vc, func(a, b valueCount) int {
		if a.c != b.c {
			return b.c - a.c
		}
		return strings.Compare(symbol.Str(a.v), symbol.Str(b.v))
	})
	out := make([]string, len(vc))
	for i, x := range vc {
		out[i] = symbol.Str(x.v)
	}
	return out
}

// DisplayName returns the node's most frequent first name and surname.
func (n *Node) DisplayName() string {
	f, s := n.NameParts()
	return f + " " + s
}

// NameParts returns the two halves of DisplayName: the node's most
// frequent first name and surname, "?" for one it has none of.
func (n *Node) NameParts() (first, surname string) {
	first, surname = "?", "?"
	if len(n.FirstNames) > 0 {
		first = n.FirstNames[0]
	}
	if len(n.Surnames) > 0 {
		surname = n.Surnames[0]
	}
	return first, surname
}

// Pedigree is an extracted family tree around a focus entity.
type Pedigree struct {
	Focus NodeID
	// Members maps each included entity to its hop distance from the focus
	// (0 for the focus itself).
	Members map[NodeID]int
	// Edges are the relationship edges among included entities.
	Edges []PedigreeEdge
}

// PedigreeEdge is one relationship inside an extracted pedigree.
type PedigreeEdge struct {
	From, To NodeID
	Rel      model.Relationship
}

// Extract returns the family pedigree of the focus entity up to g
// generations (hops) away, following mother/father/spouse/child edges in
// both directions (Sec. 8; the paper uses g=2).
func (g *Graph) Extract(focus NodeID, generations int) *Pedigree {
	p := &Pedigree{Focus: focus, Members: map[NodeID]int{focus: 0}}
	// Undirected adjacency for traversal: an edge in either direction
	// connects the two entities.
	frontier := []NodeID{focus}
	for hop := 1; hop <= generations; hop++ {
		var next []NodeID
		for _, id := range frontier {
			for _, nb := range g.neighbours(id) {
				if _, ok := p.Members[nb]; ok {
					continue
				}
				p.Members[nb] = hop
				next = append(next, nb)
			}
		}
		frontier = next
	}
	seen := map[PedigreeEdge]bool{}
	for id := range p.Members {
		for _, e := range g.Nodes[id].Edges {
			if _, ok := p.Members[e.To]; !ok {
				continue
			}
			pe := PedigreeEdge{From: id, To: e.To, Rel: e.Rel}
			if !seen[pe] {
				seen[pe] = true
				p.Edges = append(p.Edges, pe)
			}
		}
	}
	slices.SortFunc(p.Edges, func(a, b PedigreeEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Rel, b.Rel))
	})
	return p
}

// neighbours returns the distinct entities connected to id by any
// relationship edge in either direction.
func (g *Graph) neighbours(id NodeID) []NodeID {
	edges := g.Nodes[id].Edges
	out := make([]NodeID, len(edges))
	for i, e := range edges {
		out[i] = e.To
	}
	// Reverse edges: scan is avoided by the symmetric construction —
	// motherOf/fatherOf always pair with childOf and spouseOf with
	// spouseOf, so forward edges suffice.
	slices.Sort(out)
	return slices.Compact(out)
}

// RenderText renders a pedigree as an indented text tree rooted at the
// focus entity: ancestors above (parents, grandparents), descendants below,
// gender marked like the web interface's colours (Figs. 7-8).
func (g *Graph) RenderText(p *Pedigree) string {
	var b strings.Builder
	focus := g.Node(p.Focus)
	fmt.Fprintf(&b, "Family pedigree of %s %s\n", focus.DisplayName(), lifespan(focus))

	parents := g.related(p, p.Focus, model.MotherOf, model.FatherOf)
	for _, pid := range parents {
		pn := g.Node(pid)
		fmt.Fprintf(&b, "  parent: %s (%s) %s\n", pn.DisplayName(), pn.Gender, lifespan(pn))
		for _, gp := range g.related(p, pid, model.MotherOf, model.FatherOf) {
			gn := g.Node(gp)
			fmt.Fprintf(&b, "    grandparent: %s (%s) %s\n", gn.DisplayName(), gn.Gender, lifespan(gn))
		}
	}
	for _, sid := range g.related(p, p.Focus, model.SpouseOf) {
		sn := g.Node(sid)
		fmt.Fprintf(&b, "  spouse: %s (%s) %s\n", sn.DisplayName(), sn.Gender, lifespan(sn))
	}
	for _, cid := range g.children(p, p.Focus) {
		cn := g.Node(cid)
		fmt.Fprintf(&b, "  child: %s (%s) %s\n", cn.DisplayName(), cn.Gender, lifespan(cn))
		for _, gc := range g.children(p, cid) {
			gn := g.Node(gc)
			fmt.Fprintf(&b, "    grandchild: %s (%s) %s\n", gn.DisplayName(), gn.Gender, lifespan(gn))
		}
	}
	return b.String()
}

// related returns pedigree members that point at id with any of the given
// relationships (e.g. MotherOf/FatherOf edges incoming to id identify the
// parents).
func (g *Graph) related(p *Pedigree, id NodeID, rels ...model.Relationship) []NodeID {
	var out []NodeID
	for member := range p.Members {
		for _, e := range g.Nodes[member].Edges {
			if e.To == id && slices.Contains(rels, e.Rel) {
				out = append(out, member)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// children returns pedigree members that id points at with MotherOf or
// FatherOf edges.
func (g *Graph) children(p *Pedigree, id NodeID) []NodeID {
	var out []NodeID
	for _, e := range g.Nodes[id].Edges {
		if e.Rel != model.MotherOf && e.Rel != model.FatherOf {
			continue
		}
		if _, ok := p.Members[e.To]; ok {
			out = append(out, e.To)
		}
	}
	slices.Sort(out)
	// Deduplicate (several certificates can witness the same parenthood).
	return slices.Compact(out)
}

func lifespan(n *Node) string {
	switch {
	case n.BirthYear != 0 && n.DeathYear != 0:
		return fmt.Sprintf("(%d-%d)", n.BirthYear, n.DeathYear)
	case n.BirthYear != 0:
		return fmt.Sprintf("(b. %d)", n.BirthYear)
	case n.DeathYear != 0:
		return fmt.Sprintf("(d. %d)", n.DeathYear)
	}
	return ""
}
