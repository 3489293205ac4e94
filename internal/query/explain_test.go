package query

import (
	"testing"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

// fullQueryFor builds a query exercising every scored field against the
// node's own values, so the location-similarity path is guaranteed to fire.
func fullQueryFor(e *Engine, n *pedigree.Node) (Query, bool) {
	if len(n.FirstNames) == 0 || len(n.Surnames) == 0 ||
		n.Gender == model.GenderUnknown || n.MinYear == 0 || len(n.Locations) == 0 {
		return Query{}, false
	}
	certType := model.Birth
	if len(n.Records) > 0 {
		certType = e.Graph.Dataset.Record(n.Records[0]).Role.CertType()
	}
	return Query{
		FirstName: n.FirstNames[0],
		Surname:   n.Surnames[0],
		Gender:    n.Gender,
		YearFrom:  n.MinYear,
		YearTo:    n.MaxYear,
		Location:  n.Locations[0],
		CertType:  certType, HasCertType: true,
	}, true
}

// TestExplainBreakdownSumsToSearchScore runs a query with every scored
// field populated — including a location match (similarity path) and a
// cert-type restriction — and asserts, for each returned entity, that the
// per-field contributions of Explain sum to exactly the score Search
// assigned that entity.
func TestExplainBreakdownSumsToSearchScore(t *testing.T) {
	e := builtEngine(t)
	var q Query
	ok := false
	for i := range e.Graph.Nodes {
		if q, ok = fullQueryFor(e, &e.Graph.Nodes[i]); ok {
			break
		}
	}
	if !ok {
		t.Skip("no entity with names, gender, years, and a location")
	}

	results := e.Search(q)
	if len(results) == 0 {
		t.Fatal("full query returned no results")
	}
	// The query enables every scored field, so its weight sum is fixed.
	weightSum := weights[index.FieldFirstName] + weights[index.FieldSurname] +
		weights[index.FieldGender] + weights[index.FieldYear] + weights[index.FieldLocation]

	sawLocation := false
	for _, r := range results {
		ex := e.Explain(q, r.Entity)

		// s_r sums in field order, whatever order Fields lists them in.
		var contrib [index.NumFields]float64
		for _, f := range ex.Fields {
			contrib[f.Field] = f.Contribution
			if f.Contribution != f.Weight*f.Similarity {
				t.Errorf("entity %d field %v: contribution %v != weight %v x similarity %v",
					r.Entity, f.Field, f.Contribution, f.Weight, f.Similarity)
			}
			if f.Field == index.FieldLocation {
				sawLocation = true
				if f.QueryValue != q.Location {
					t.Errorf("location explanation for query value %q, want %q", f.QueryValue, q.Location)
				}
				if f.Similarity <= 0 || f.Similarity > 1 {
					t.Errorf("location similarity %v out of (0,1]", f.Similarity)
				}
			}
		}
		contribSum := 0.0
		for _, c := range contrib {
			contribSum += c
		}
		if got := 100 * contribSum / weightSum; got != ex.Score {
			t.Errorf("entity %d: field contributions sum to %v, Explain.Score is %v", r.Entity, got, ex.Score)
		}
		if ex.Score != r.Score {
			t.Errorf("entity %d: Explain score %v != Search score %v", r.Entity, ex.Score, r.Score)
		}
		// The cert-type restriction filtered this result set: every entity
		// Search returned must carry a record of the queried type.
		has := false
		for _, rid := range e.Graph.Node(r.Entity).Records {
			if e.Graph.Dataset.Record(rid).Role.CertType() == q.CertType {
				has = true
				break
			}
		}
		if !has {
			t.Errorf("entity %d survived the cert-type filter without a %v record", r.Entity, q.CertType)
		}
	}
	if !sawLocation {
		t.Error("no result explained a location contribution despite querying a held location")
	}
}

// TestExplainApproximateLocation exercises the location-similarity path
// with a misspelt location: the contribution must scale by similarity < 1.
func TestExplainApproximateLocation(t *testing.T) {
	e := builtEngine(t)
	var n *pedigree.Node
	for i := range e.Graph.Nodes {
		cand := &e.Graph.Nodes[i]
		if len(cand.FirstNames) > 0 && len(cand.Surnames) > 0 && len(cand.Locations) > 0 &&
			len(cand.Locations[0]) >= 6 {
			n = cand
			break
		}
	}
	if n == nil {
		t.Skip("no entity with a long-enough location")
	}
	loc := n.Locations[0]
	misspelt := loc[:len(loc)-1] + "x"
	q := Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0], Location: misspelt}

	ex := e.Explain(q, n.ID)
	for _, f := range ex.Fields {
		if f.Field != index.FieldLocation {
			continue
		}
		if f.Exact {
			t.Error("misspelt location explained as exact")
		}
		if f.Similarity >= 1 || f.Similarity <= 0 {
			t.Errorf("approximate location similarity %v, want in (0,1)", f.Similarity)
		}
		if f.Contribution != weights[index.FieldLocation]*f.Similarity {
			t.Errorf("approximate location contribution %v not scaled by similarity", f.Contribution)
		}
		// And Search agrees with the degraded score.
		for _, r := range e.Search(q) {
			if r.Entity == n.ID && ex.Score != r.Score {
				t.Errorf("Explain %v != Search %v on approximate location", ex.Score, r.Score)
			}
		}
		return
	}
	// The similarity index may not cover the misspelling at all; that is a
	// legitimate no-contribution outcome, not a failure — but the entity
	// must then score identically in Search.
	for _, r := range e.Search(q) {
		if r.Entity == n.ID && ex.Score != r.Score {
			t.Errorf("Explain %v != Search %v with unmatched location", ex.Score, r.Score)
		}
	}
}

// TestExplainEqualsSearch explains every row of every golden query and of
// full-query variants (with and without the cert-type restriction, and with
// a misspelt surname) built from the graph's entities: each explanation's
// score must equal the row's bit for bit, and its exact/approximate flags
// the row's match state.
func TestExplainEqualsSearch(t *testing.T) {
	e := builtEngine(t)
	qs := goldenQueries(e)
	for i := range e.Graph.Nodes {
		q, ok := fullQueryFor(e, &e.Graph.Nodes[i])
		if !ok {
			continue
		}
		qs = append(qs, q)
		q.HasCertType = false
		qs = append(qs, q)
		if len(q.Surname) >= 5 {
			q.Surname = q.Surname[:len(q.Surname)-1] + "x"
			qs = append(qs, q)
		}
		if len(qs) >= 600 {
			break
		}
	}
	rows := 0
	for _, q := range qs {
		for _, r := range e.Search(q) {
			rows++
			ex := e.Explain(q, r.Entity)
			if ex.Score != r.Score {
				t.Fatalf("query %+v entity %d: Explain score %v != Search score %v", q, r.Entity, ex.Score, r.Score)
			}
			var flags [index.NumFields]Match
			for _, f := range ex.Fields {
				flags[f.Field] = MatchApprox
				if f.Exact {
					flags[f.Field] = MatchExact
				}
			}
			if flags != r.Matched {
				t.Fatalf("query %+v entity %d: Explain flags %v != Search match state %v", q, r.Entity, flags, r.Matched)
			}
		}
	}
	if rows < 1000 {
		t.Fatalf("the sweep explained only %d rows", rows)
	}
}
