package query

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
)

// raceEnabled is set by raceon_test.go under -race, where allocation counts
// mean nothing.
var raceEnabled bool

func builtEngine(t *testing.T) *Engine {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(0.06))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(p.Dataset, pr.Result.Store)
	k, s := index.Build(g, 0.5)
	return NewEngine(g, k, s)
}

// pickEntity returns a node with both names present.
func pickEntity(e *Engine) *pedigree.Node {
	for i := range e.Graph.Nodes {
		n := &e.Graph.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 && n.Gender != model.GenderUnknown {
			return n
		}
	}
	return nil
}

func TestSearchExactMatchRanksFirst(t *testing.T) {
	e := builtEngine(t)
	n := pickEntity(e)
	if n == nil {
		t.Skip("no suitable entity")
	}
	results := e.Search(Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]})
	if len(results) == 0 {
		t.Fatal("no results for an indexed name")
	}
	found := false
	for _, r := range results {
		if r.Entity == n.ID {
			found = true
			if r.Score < results[len(results)-1].Score {
				t.Error("exact entity scored below tail of result list")
			}
		}
	}
	if !found {
		t.Error("queried entity absent from results")
	}
	// Results must be sorted by score descending.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchRequiresNameMatch(t *testing.T) {
	e := builtEngine(t)
	results := e.Search(Query{FirstName: "qqqqqq", Surname: "xxxxxx"})
	if len(results) != 0 {
		t.Errorf("nonsense names returned %d results", len(results))
	}
}

func TestSearchApproximateNames(t *testing.T) {
	e := builtEngine(t)
	n := pickEntity(e)
	if n == nil || len(n.Surnames[0]) < 6 {
		t.Skip("no suitable entity")
	}
	// Misspell the surname by one character.
	sur := n.Surnames[0]
	misspelt := sur[:len(sur)-1] + "x"
	results := e.Search(Query{FirstName: n.FirstNames[0], Surname: misspelt})
	found := false
	for _, r := range results {
		if r.Entity == n.ID {
			found = true
			if r.Matched[index.FieldSurname] == MatchExact {
				t.Error("misspelt surname reported as exact match")
			}
		}
	}
	if !found {
		t.Error("approximate surname failed to retrieve entity")
	}
}

func TestSearchGenderRefinement(t *testing.T) {
	e := builtEngine(t)
	n := pickEntity(e)
	if n == nil {
		t.Skip("no suitable entity")
	}
	q := Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0], Gender: n.Gender}
	var matching, mismatched float64
	for _, r := range e.Search(q) {
		if r.Entity == n.ID {
			matching = r.Score
		}
	}
	if n.Gender == model.Male {
		q.Gender = model.Female
	} else {
		q.Gender = model.Male
	}
	for _, r := range e.Search(q) {
		if r.Entity == n.ID {
			mismatched = r.Score
		}
	}
	if matching <= mismatched {
		t.Errorf("mismatched gender should lower the normalised score: match=%v mismatch=%v", matching, mismatched)
	}
}

func TestSearchYearRange(t *testing.T) {
	e := builtEngine(t)
	n := pickEntity(e)
	if n == nil || n.MinYear == 0 {
		t.Skip("no suitable entity")
	}
	q := Query{
		FirstName: n.FirstNames[0], Surname: n.Surnames[0],
		YearFrom: n.MinYear, YearTo: n.MaxYear,
	}
	for _, r := range e.Search(q) {
		if r.Entity == n.ID && r.Matched[index.FieldYear] != MatchExact {
			t.Error("entity inside queried year range not marked as year match")
		}
	}
	// A range entirely outside the entity's years must not mark the year.
	q.YearFrom, q.YearTo = n.MaxYear+50, n.MaxYear+60
	for _, r := range e.Search(q) {
		if r.Entity == n.ID && r.Matched[index.FieldYear] != MatchNone {
			t.Error("entity outside queried year range marked as year match")
		}
	}
}

func TestSearchCertTypeRestriction(t *testing.T) {
	e := builtEngine(t)
	// Find an entity with only birth-certificate records.
	var n *pedigree.Node
	for i := range e.Graph.Nodes {
		cand := &e.Graph.Nodes[i]
		if len(cand.FirstNames) == 0 || len(cand.Surnames) == 0 {
			continue
		}
		onlyBirth := true
		for _, rid := range cand.Records {
			if e.Graph.Dataset.Record(rid).Role.CertType() != model.Birth {
				onlyBirth = false
				break
			}
		}
		if onlyBirth {
			n = cand
			break
		}
	}
	if n == nil {
		t.Skip("no birth-only entity")
	}
	q := Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0],
		CertType: model.Death, HasCertType: true}
	for _, r := range e.Search(q) {
		if r.Entity == n.ID {
			t.Error("birth-only entity returned for a death-record search")
		}
	}
}

func TestSearchTopM(t *testing.T) {
	e := builtEngine(t)
	e.TopM = 3
	n := pickEntity(e)
	if n == nil {
		t.Skip("no suitable entity")
	}
	results := e.Search(Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]})
	if len(results) > 3 {
		t.Errorf("TopM=3 returned %d results", len(results))
	}
}

func TestScoreNormalised(t *testing.T) {
	e := builtEngine(t)
	n := pickEntity(e)
	if n == nil {
		t.Skip("no suitable entity")
	}
	for _, r := range e.Search(Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]}) {
		if r.Score < 0 || r.Score > 100+1e-9 {
			t.Fatalf("score %v out of [0,100]", r.Score)
		}
	}
}

func TestParseYear(t *testing.T) {
	if ParseYear("1884") != 1884 || ParseYear("") != 0 || ParseYear("abc") != 0 {
		t.Error("ParseYear misbehaves")
	}
}

func TestExplainMatchesSearchScore(t *testing.T) {
	e := builtEngine(t)
	n := pickEntity(e)
	if n == nil {
		t.Skip("no suitable entity")
	}
	q := Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0], Gender: n.Gender}
	var searchScore float64
	found := false
	for _, r := range e.Search(q) {
		if r.Entity == n.ID {
			searchScore = r.Score
			found = true
		}
	}
	if !found {
		t.Skip("entity not in result list")
	}
	ex := e.Explain(q, n.ID)
	if ex.Score != searchScore {
		t.Errorf("Explain score %v != Search score %v", ex.Score, searchScore)
	}
	if len(ex.Fields) < 2 {
		t.Errorf("expected name field explanations, got %d", len(ex.Fields))
	}
	for _, f := range ex.Fields {
		if f.Contribution < 0 || f.Contribution > f.Weight+1e-12 {
			t.Errorf("field %v contribution %v out of [0, weight=%v]", f.Field, f.Contribution, f.Weight)
		}
		if f.Exact && f.Similarity != 1 {
			t.Errorf("exact match with similarity %v", f.Similarity)
		}
	}
}

func TestExplainNoMatch(t *testing.T) {
	e := builtEngine(t)
	ex := e.Explain(Query{FirstName: "qqqq", Surname: "zzzz"}, 0)
	if len(ex.Fields) != 0 || ex.Score != 0 {
		t.Errorf("nonsense query should explain to nothing: %+v", ex)
	}
}

// searchSecondsBuckets reads the engine's latency histogram off the default
// registry: the cumulative count at each upper bound, ascending.
func searchSecondsBuckets(t *testing.T) (les []float64, counts []int64) {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `snaps_query_search_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, n, _ := strings.Cut(rest, `"} `)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad bound in %q: %v", line, err)
		}
		count, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		les, counts = append(les, bound), append(counts, count)
	}
	return les, counts
}

// TestSearchHistogramResolvesSearches: snaps_query_search_seconds must
// resolve what a search costs. After a few hundred searches, the bucket
// holding the median of their observations — where the histogram's p50
// estimate lies — spans no more than a factor of 3 either side of the
// median the test times itself; a layout whose first bucket swallows every
// search would put that estimate anywhere between 0 and its bound.
func TestSearchHistogramResolvesSearches(t *testing.T) {
	e := builtEngine(t)
	var queries []Query
	for i := range e.Graph.Nodes {
		if n := &e.Graph.Nodes[i]; len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			queries = append(queries, Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]})
		}
	}
	const searches = 400
	for _, q := range queries[:min(len(queries), 50)] {
		e.Search(q) // warm the probe caches and the allocator
	}
	les, before := searchSecondsBuckets(t)
	took := make([]time.Duration, searches)
	for i := range took {
		start := time.Now()
		e.Search(queries[i%len(queries)])
		took[i] = time.Since(start)
	}
	_, after := searchSecondsBuckets(t)
	if len(les) == 0 || len(after) != len(before) {
		t.Fatalf("snaps_query_search_seconds has %d bounds, %d then %d counts", len(les), len(before), len(after))
	}
	slices.Sort(took)
	median := took[searches/2].Seconds()
	lo := 0.0
	for i, le := range les {
		if n := after[i] - before[i]; 2*n >= searches {
			if lo < median/3 || le > 3*median {
				t.Fatalf("the median of %d searches is %.1f µs, but the histogram puts it in (%g, %g] s", searches, 1e6*median, lo, le)
			}
			return
		}
		lo = le
	}
	t.Fatalf("the histogram counted fewer than half of %d searches", searches)
}
