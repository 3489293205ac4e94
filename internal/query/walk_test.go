package query

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

// ds4kEngine is one engine over the serve tier's DS-4k graph (seed 1,
// ScaleLSHConfig, the whole graph in one index), built once per test binary.
var ds4kEngine = sync.OnceValue(func() *Engine {
	cfg := dataset.ScaleTier(4000)
	cfg.Seed = 1
	d := dataset.GenerateScale(cfg).Dataset
	pr := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	k, s := index.Build(g, 0.5)
	return NewEngine(g, k, s)
})

// tailPairs returns every indexed pair — the most frequent first name and
// surname of an entity, once per distinct pair, in name order — each with
// every refinement taken from the first entity carrying it: a location
// when it has one, its gender, a five-year range around its first event
// year when it has one, and the certificate type of its first record.
func tailPairs(e *Engine) (names, refined []Query) {
	seen := map[Query]bool{}
	for i := range e.Graph.Nodes {
		n := &e.Graph.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		q := Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]}
		if seen[q] {
			continue
		}
		seen[q] = true
		names = append(names, q)
		r := q
		if len(n.Locations) > 0 {
			r.Location = n.Locations[0]
		}
		r.Gender = n.Gender
		if n.MinYear != 0 {
			r.YearFrom, r.YearTo = n.MinYear-2, n.MinYear+2
		}
		r.CertType, r.HasCertType = e.Graph.Dataset.Record(n.Records[0]).Role.CertType(), true
		refined = append(refined, r)
	}
	byName := func(x, y Query) int {
		return cmp.Or(cmp.Compare(x.FirstName, y.FirstName), cmp.Compare(x.Surname, y.Surname))
	}
	slices.SortFunc(names, byName)
	slices.SortFunc(refined, byName)
	return names, refined
}

// TestWalkMatchesReference runs every DS-4k tail pair, names only and with
// every refinement, through the walk at m = 0, 1, 20 and 100 and compares
// each ranking, bit for bit and flag for flag, with the reference's full
// ranking truncated to m: the stopped walk returns what reading both lists
// to the end returns, and m = 0 every candidate. Under -race it runs a
// seeded sample of 100 pairs of each kind.
func TestWalkMatchesReference(t *testing.T) {
	e := ds4kEngine()
	plain, refined := tailPairs(e)
	if len(plain) < 1000 {
		t.Fatalf("%d tail pairs at DS-4k, want over 1,000", len(plain))
	}
	prev := e.TopM
	defer func() { e.TopM = prev }()
	for _, set := range []struct {
		kind string
		qs   []Query
	}{{"names", plain}, {"refined", refined}} {
		qs := set.qs
		if raceEnabled {
			qs = slices.Clone(qs)
			rand.New(rand.NewSource(1)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			qs = qs[:100]
		}
		stopped := 0
		for _, q := range qs {
			e.TopM = 0
			full := referenceSearch(e, q)
			for _, m := range []int{0, 1, 20, 100} {
				e.TopM = m
				want := full
				if m > 0 && len(want) > m {
					want = want[:m]
				}
				if got := e.Search(q); !slices.Equal(got, want) {
					t.Fatalf("%s m=%d %+v: %s", set.kind, m, q, firstDifference(got, want))
				}
			}
			st := e.getState()
			lists := nameLists{e.similar(index.FieldFirstName, q.FirstName), e.similar(index.FieldSurname, q.Surname)}
			if w := e.walk(st, &q, &lists); w.stopped {
				stopped++
			}
			e.pool.Put(st)
		}
		// The test is only as strong as the stop is common.
		if stopped < len(qs)/2 {
			t.Errorf("%s: the walk stopped early on %d of %d pairs at m=100", set.kind, stopped, len(qs))
		}
	}
}

// firstDifference describes the first row where a ranking differs from
// the reference, or their lengths.
func firstDifference(got, want []Result) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: reference %s, walk %s", i, render(want[i:i+1]), render(got[i:i+1]))
		}
	}
	return fmt.Sprintf("%d rows, the reference %d", len(got), len(want))
}

// TestWalkKeepsTheTieRule builds a graph whose entities hold two values
// that tie in the query's list, at similarity 1: "ann mary" and "mary ann"
// score 1 against each other (their tokens match), and the list orders the
// tie by string, so an entity with both matches approximately, through
// "ann mary", although it carries the query's own value. It holds for a
// first name the walk reaches the entity through and for a surname it
// reads by random access, and ranks and flags equal the reference's.
func TestWalkKeepsTheTieRule(t *testing.T) {
	nodes := [][2][]string{
		{{"mary ann", "ann mary"}, {"van dyke"}},
		{{"mary ann"}, {"van dyke", "dyke van"}},
		{{"mary ann"}, {"van dyke"}},
		{{"ann mary"}, {"van dyk"}},
		{{"marianne"}, {"van dijk"}},
		{{"mary"}, {"dyke"}},
	}
	g := &pedigree.Graph{}
	for i, n := range nodes {
		g.Nodes = append(g.Nodes, pedigree.Node{ID: pedigree.NodeID(i), FirstNames: n[0], Surnames: n[1], Gender: model.Female})
	}
	k, s := index.Build(g, 0.5)
	e := NewEngine(g, k, s)
	q := Query{FirstName: "mary ann", Surname: "van dyke"}
	for f, tied := range map[index.Field]string{index.FieldFirstName: "ann mary", index.FieldSurname: "dyke van"} {
		if l := e.similar(f, queryValue(q, f)); l.Len() < 2 || l.At(0).Value != tied || l.At(0).Sim != 1 || l.At(1).Sim != 1 {
			t.Fatalf("%v list of %q does not open with %q tied at 1: %v", f, queryValue(q, f), tied, similarValues(l))
		}
	}
	for _, m := range []int{0, 1, 2, 20} {
		e.TopM = m
		for _, q := range []Query{q, {FirstName: q.FirstName, Surname: q.Surname, Gender: model.Female}} {
			want, got := referenceSearch(e, q), e.Search(q)
			if render(got) != render(want) {
				t.Fatalf("m=%d %+v:\nreference:\n%s\nwalk:\n%s", m, q, render(want), render(got))
			}
		}
	}
	e.TopM = 0
	res := e.Search(q)
	flags := map[pedigree.NodeID][index.NumFields]Match{}
	for _, r := range res {
		flags[r.Entity] = r.Matched
	}
	if got := flags[0][index.FieldFirstName]; got != MatchApprox {
		t.Errorf("entity 0's first name matched %v, want approximate (the tie's first entry)", got)
	}
	if got := flags[1][index.FieldSurname]; got != MatchApprox {
		t.Errorf("entity 1's surname matched %v, want approximate (the tie's first entry)", got)
	}
	if got := flags[2]; got[index.FieldFirstName] != MatchExact || got[index.FieldSurname] != MatchExact {
		t.Errorf("entity 2 matched %v, want both names exact", got)
	}
}

// queryValue returns the query's value of a name field.
func queryValue(q Query, f index.Field) string {
	if f == index.FieldFirstName {
		return q.FirstName
	}
	return q.Surname
}
