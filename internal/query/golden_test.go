package query

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/strsim"
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

// referenceSearch is the historical engine — per-candidate pointer map,
// Matched maps for every candidate, full sort, trim — kept verbatim as the
// golden oracle: the slab + heap engine must produce byte-identical ranked
// output for any query.
func referenceSearch(e *Engine, q Query) []Result {
	lookupName := func(f index.Field, value string) []index.SimilarValue {
		if value == "" {
			return nil
		}
		return similarValues(e.Similar.Similar(f, value))
	}
	firstVals := lookupName(index.FieldFirstName, q.FirstName)
	surVals := lookupName(index.FieldSurname, q.Surname)

	m := map[pedigree.NodeID]*accum{}
	weightSum := e.Weights.FirstName + e.Weights.Surname
	refAccumulate := func(f index.Field, value string, similar []index.SimilarValue, weight float64) {
		if value == "" {
			return
		}
		for _, sv := range similar {
			exact := sv.Value == value
			contribution := weight * sv.Sim
			for _, id := range e.Keyword.Lookup(f, sv.Value) {
				a := m[id]
				if a == nil {
					a = &accum{}
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
	refAccumulate(index.FieldFirstName, q.FirstName, firstVals, e.Weights.FirstName)
	refAccumulate(index.FieldSurname, q.Surname, surVals, e.Weights.Surname)

	if q.Gender != model.GenderUnknown {
		weightSum += e.Weights.Gender
		for id, a := range m {
			if e.Graph.Node(id).Gender == q.Gender {
				a.contrib[index.FieldGender] = e.Weights.Gender
				a.matched[index.FieldGender] = true
				a.hasField[index.FieldGender] = true
			}
		}
	}
	if q.YearFrom != 0 || q.YearTo != 0 {
		weightSum += e.Weights.Year
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
				a.contrib[index.FieldYear] = e.Weights.Year
				a.matched[index.FieldYear] = true
				a.hasField[index.FieldYear] = true
			}
		}
	}
	if q.Location != "" {
		weightSum += e.Weights.Location
		for id, a := range m {
			if sim, exact, ok := e.bestLocation(id, q.Location, e.Similar.Similar(index.FieldLocation, q.Location)); ok {
				a.contrib[index.FieldLocation] = e.Weights.Location * sim
				a.matched[index.FieldLocation] = exact
				a.hasField[index.FieldLocation] = true
			}
		}
	}
	if q.HasCertType {
		for id, a := range m {
			if !e.hasCertType(id, q.CertType) {
				a.excluded = true
			}
		}
	}
	if q.RadiusKm > 0 {
		for id, a := range m {
			n := e.Graph.Node(id)
			if n.HasGeo && strsim.GeoDistanceKm(q.CenterLat, q.CenterLon, n.Lat, n.Lon) > q.RadiusKm {
				a.excluded = true
			}
		}
	}

	results := make([]Result, 0, len(m))
	for id, a := range m {
		if a.excluded {
			continue
		}
		matched := map[index.Field]bool{}
		for f := index.Field(0); f < index.NumFields; f++ {
			if a.hasField[f] {
				matched[f] = a.matched[f]
			}
		}
		results = append(results, Result{
			Entity:  id,
			Score:   100 * a.score() / weightSum,
			Matched: matched,
		})
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
// and misspelt names, gender/year/location refinement, cert-type and geo
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
		if n.HasGeo {
			qs = append(qs, Query{FirstName: first, Surname: sur,
				CenterLat: n.Lat, CenterLon: n.Lon, RadiusKm: 10})
		}
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
			if exact, ok := r.Matched[f]; ok {
				out += fmt.Sprintf(" %v=%v", f, exact)
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

// TestSearchResultsDeepEqual double-checks structural equality (maps
// included) between reference and engine on the default configuration.
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
