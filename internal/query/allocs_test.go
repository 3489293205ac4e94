package query

import (
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/symbol"
)

// tailQuery is the name pair of an entity whose surname no other entity
// carries (the first such surname in value order): the tail of the name
// distribution, where a search is mostly the walk over both names' lists.
func tailQuery(t *testing.T, e *Engine) Query {
	t.Helper()
	best := Query{}
	for i := range e.Graph.Nodes {
		n := &e.Graph.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		sur := n.Surnames[0]
		if id, _ := symbol.Lookup(sur); len(e.Keyword.Entities(index.FieldSurname, id)) == 1 && (best.Surname == "" || sur < best.Surname) {
			best = Query{FirstName: n.FirstNames[0], Surname: sur}
		}
	}
	if best.Surname == "" {
		t.Fatal("no entity with a surname of its own")
	}
	return best
}

// TestSearchAllocsCeiling holds a tail-pair search to its one allocation,
// the ranked results: the lists are read in place through the view, the
// accumulator is pooled, match state is a value copied into each row, and
// the survivors sort without a closure or swapper on the heap. With a
// location, warmed, it stays at one: the location's list is a probe-cache
// hit, and the table every candidate's locations are looked up in is the
// pooled state's, refilled in place.
func TestSearchAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	e := builtEngine(t)
	q := tailQuery(t, e)
	located := q
	for i := range e.Graph.Nodes {
		if n := &e.Graph.Nodes[i]; len(n.Locations) > 0 && slices.Contains(n.Surnames, q.Surname) {
			located.Location = n.Locations[0]
			break
		}
	}
	if located.Location == "" {
		t.Fatalf("no entity of %+v has a location", q)
	}
	const ceiling = 1
	for _, q := range []Query{q, located} {
		res := e.Search(q)
		if len(res) == 0 {
			t.Fatalf("no results for %+v", q)
		}
		if q.Location != "" && res[0].Matched[index.FieldLocation] != MatchExact {
			t.Fatalf("the top result of %+v does not match the location exactly", q)
		}
		if got := testing.AllocsPerRun(200, func() { e.Search(q) }); got > ceiling {
			t.Errorf("Search(%+v) makes %v allocations, ceiling %d", q, got, ceiling)
		}
	}
}
