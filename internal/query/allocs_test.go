package query

import (
	"testing"

	"github.com/snaps/snaps/internal/index"
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
		if sur := n.Surnames[0]; len(e.Keyword.Lookup(index.FieldSurname, sur)) == 1 && (best.Surname == "" || sur < best.Surname) {
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
// the survivors sort without a closure or swapper on the heap.
func TestSearchAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	e := builtEngine(t)
	q := tailQuery(t, e)
	if len(e.Search(q)) == 0 {
		t.Fatalf("no results for %+v", q)
	}
	const ceiling = 1
	if got := testing.AllocsPerRun(200, func() { e.Search(q) }); got > ceiling {
		t.Errorf("Search(%+v) makes %v allocations, ceiling %d", q, got, ceiling)
	}
}
