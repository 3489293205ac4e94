package query

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/symbol"
)

// similarValues materialises a view of S as the slice the historical engine
// was handed.
func similarValues(l index.SimilarList) []index.SimilarValue {
	out := make([]index.SimilarValue, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

// refAccum is the historical engine's accumulator entry: the best weighted
// contribution per query field, and whether that contribution was exact.
type refAccum struct {
	contrib  [index.NumFields]float64
	matched  [index.NumFields]bool
	hasField [index.NumFields]bool
	excluded bool
}

// referenceSearch is the historical engine — per-candidate pointer map,
// match flags for every candidate, full sort, trim — kept as the golden
// oracle: the slab + heap engine must produce byte-identical ranked output
// for any query.
func referenceSearch(e *Engine, q Query) []Result {
	lookupName := func(f index.Field, value string) []index.SimilarValue {
		if value == "" {
			return nil
		}
		return similarValues(e.Similar.Similar(f, value))
	}
	firstVals := lookupName(index.FieldFirstName, q.FirstName)
	surVals := lookupName(index.FieldSurname, q.Surname)

	m := map[pedigree.NodeID]*refAccum{}
	weightSum := weights[index.FieldFirstName] + weights[index.FieldSurname]
	refAccumulate := func(f index.Field, value string, similar []index.SimilarValue) {
		if value == "" {
			return
		}
		for _, sv := range similar {
			exact := sv.Value == value
			contribution := weights[f] * sv.Sim
			sym, _ := symbol.Lookup(sv.Value)
			for _, id := range e.Keyword.Entities(f, sym) {
				a := m[id]
				if a == nil {
					a = &refAccum{}
					m[id] = a
				}
				if contribution > a.contrib[f] {
					a.contrib[f] = contribution
					a.matched[f] = exact
				}
				a.hasField[f] = true
			}
		}
	}
	refAccumulate(index.FieldFirstName, q.FirstName, firstVals)
	refAccumulate(index.FieldSurname, q.Surname, surVals)

	if q.Gender != model.GenderUnknown {
		weightSum += weights[index.FieldGender]
		for id, a := range m {
			if e.Graph.Node(id).Gender == q.Gender {
				a.contrib[index.FieldGender] = weights[index.FieldGender]
				a.matched[index.FieldGender] = true
				a.hasField[index.FieldGender] = true
			}
		}
	}
	if q.YearFrom != 0 || q.YearTo != 0 {
		weightSum += weights[index.FieldYear]
		from, to := q.YearFrom, q.YearTo
		if from == 0 {
			from = -1 << 30
		}
		if to == 0 {
			to = 1 << 30
		}
		for id, a := range m {
			n := e.Graph.Node(id)
			if n.MinYear != 0 && n.MinYear <= to && n.MaxYear >= from {
				a.contrib[index.FieldYear] = weights[index.FieldYear]
				a.matched[index.FieldYear] = true
				a.hasField[index.FieldYear] = true
			}
		}
	}
	if q.Location != "" {
		weightSum += weights[index.FieldLocation]
		locs := similarValues(e.Similar.Similar(index.FieldLocation, q.Location))
		for id, a := range m {
			best, exact := 0.0, false
			for _, l := range e.Graph.Node(id).Locations {
				for _, sv := range locs {
					if sv.Value == l && sv.Sim > best {
						best, exact = sv.Sim, l == q.Location
					}
				}
			}
			if best > 0 {
				a.contrib[index.FieldLocation] = weights[index.FieldLocation] * best
				a.matched[index.FieldLocation] = exact
				a.hasField[index.FieldLocation] = true
			}
		}
	}
	if q.HasCertType {
		for id, a := range m {
			if !e.hasCertType(e.Graph.Node(id), q.CertType) {
				a.excluded = true
			}
		}
	}

	results := make([]Result, 0, len(m))
	for id, a := range m {
		if a.excluded {
			continue
		}
		r := Result{Entity: id}
		total := 0.0
		for f := index.Field(0); f < index.NumFields; f++ {
			total += a.contrib[f]
			switch {
			case !a.hasField[f]:
			case a.matched[f]:
				r.Matched[f] = MatchExact
			default:
				r.Matched[f] = MatchApprox
			}
		}
		r.Score = 100 * total / weightSum
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Entity < results[j].Entity
	})
	if e.TopM > 0 && len(results) > e.TopM {
		results = results[:e.TopM]
	}
	return results
}

// goldenQueries builds a query set spanning every engine code path: hot
// and misspelt names, gender/year/location refinement, cert-type
// exclusion, and their combinations.
func goldenQueries(e *Engine) []Query {
	var qs []Query
	seen := 0
	for i := range e.Graph.Nodes {
		n := &e.Graph.Nodes[i]
		if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
			continue
		}
		first, sur := n.FirstNames[0], n.Surnames[0]
		qs = append(qs, Query{FirstName: first, Surname: sur})
		qs = append(qs, Query{FirstName: first, Surname: sur, Gender: model.Female})
		if n.MinYear != 0 {
			qs = append(qs, Query{FirstName: first, Surname: sur,
				YearFrom: n.MinYear - 2, YearTo: n.MinYear + 2})
		}
		if len(n.Locations) > 0 {
			qs = append(qs, Query{FirstName: first, Surname: sur, Location: n.Locations[0]})
		}
		qs = append(qs, Query{FirstName: first, Surname: sur,
			CertType: model.Birth, HasCertType: true})
		if len(sur) >= 5 {
			qs = append(qs, Query{FirstName: first, Surname: sur[:len(sur)-1] + "x"})
		}
		seen++
		if seen >= 12 {
			break
		}
	}
	return qs
}

// render serialises a result list into the byte-comparable golden form.
func render(results []Result) string {
	out := ""
	for _, r := range results {
		out += fmt.Sprintf("%d %.17g", r.Entity, r.Score)
		for f := index.Field(0); f < index.NumFields; f++ {
			if r.Matched[f] != MatchNone {
				out += fmt.Sprintf(" %v=%v", f, r.Matched[f] == MatchExact)
			}
		}
		out += "\n"
	}
	return out
}

// TestSearchGoldenEquivalence proves the slab accumulator + top-m heap
// engine returns byte-identical ranked output to the historical map + full
// sort engine, over a query set covering every scoring path, at several
// result-list bounds. The cached path is the coordinator's
// (TestScatterGatherGoldenEquivalence).
func TestSearchGoldenEquivalence(t *testing.T) {
	e := builtEngine(t)
	qs := goldenQueries(e)
	if len(qs) == 0 {
		t.Skip("no searchable entities")
	}
	for _, topM := range []int{20, 3, 1, 0} {
		e.TopM = topM
		for qi, q := range qs {
			want := render(referenceSearch(e, q))
			got := render(e.Search(q))
			if got != want {
				t.Fatalf("topM=%d query %d (%+v):\nreference:\n%s\nengine:\n%s",
					topM, qi, q, want, got)
			}
			// Repeat to exercise the recycled (pooled) state.
			if again := render(e.Search(q)); again != want {
				t.Fatalf("topM=%d query %d: pooled re-search diverged:\n%s\nvs\n%s",
					topM, qi, want, again)
			}
		}
	}
}

// TestSearchResultsDeepEqual double-checks structural equality (match
// state included) between reference and engine on the default configuration.
func TestSearchResultsDeepEqual(t *testing.T) {
	e := builtEngine(t)
	qs := goldenQueries(e)
	if len(qs) == 0 {
		t.Skip("no searchable entities")
	}
	for qi, q := range qs {
		want := referenceSearch(e, q)
		got := e.Search(q)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d (%+v): results differ\nwant %+v\ngot  %+v", qi, q, want, got)
		}
	}
}
