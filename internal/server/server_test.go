package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/shard"
)

func testServer(t *testing.T) (*Server, *pedigree.Graph) {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(0.06))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(p.Dataset, pr.Result.Store)
	return NewSharded(shard.Partition(g, shard.Options{SimThreshold: 0.5})), g
}

// someName returns a first name and surname present in the graph, query-
// escaped: every caller splices the pair into a request URL, and multi-token
// names would otherwise produce a malformed request line.
func someName(g *pedigree.Graph) (string, string) {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			return url.QueryEscape(n.FirstNames[0]), url.QueryEscape(n.Surnames[0])
		}
	}
	return "", ""
}

func TestSearchAPI(t *testing.T) {
	s, g := testServer(t)
	first, sur := someName(g)
	req := httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.TraceID == "" {
		t.Error("search response missing trace_id")
	}
	results := resp.Results
	if len(results) == 0 {
		t.Fatal("no results for an indexed name")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("results not ranked")
		}
	}
}

// TestSearchAPIMatchFields pins the result rows' exact_fields and
// approx_fields: matched fields are listed in field order, each in the list
// of how it matched, a field that did not match in neither, and an empty
// list is JSON null.
func TestSearchAPIMatchFields(t *testing.T) {
	s, g := testServer(t)
	var n *pedigree.Node
	for i := range g.Nodes {
		c := &g.Nodes[i]
		if len(c.FirstNames) > 0 && len(c.Surnames) > 0 && len(c.Surnames[0]) >= 6 &&
			c.Gender != model.GenderUnknown && c.MinYear != 0 && len(c.Locations) > 0 {
			n = c
			break
		}
	}
	if n == nil {
		t.Skip("no entity with names, gender, years and a location")
	}
	gender, other := "m", "f"
	if n.Gender == model.Female {
		gender, other = "f", "m"
	}
	sur := n.Surnames[0]
	// fields returns the raw match lists of n's row in the ranking.
	fields := func(params url.Values) (exact, approx string) {
		t.Helper()
		params.Set("first_name", n.FirstNames[0])
		if !params.Has("surname") {
			params.Set("surname", sur)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", "/api/search?"+params.Encode(), nil))
		var resp struct {
			Results []map[string]json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d, bad JSON: %v", w.Code, err)
		}
		compact := func(raw json.RawMessage) string {
			var b bytes.Buffer
			if err := json.Compact(&b, raw); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		for _, row := range resp.Results {
			if string(row["entity"]) == itoa(int(n.ID)) {
				return compact(row["exact_fields"]), compact(row["approx_fields"])
			}
		}
		t.Fatalf("%v: entity %d not ranked", params, n.ID)
		return "", ""
	}
	for _, tc := range []struct {
		name          string
		params        url.Values
		exact, approx string
	}{
		{"exact names", url.Values{}, `["first_name","surname"]`, `null`},
		{"misspelt surname", url.Values{"surname": {sur[:len(sur)-1] + "x"}},
			`["first_name"]`, `["surname"]`},
		{"refinements held", url.Values{"gender": {gender}, "location": {n.Locations[0]},
			"year_from": {itoa(n.MinYear)}, "year_to": {itoa(n.MaxYear)}},
			`["first_name","surname","location","gender","year"]`, `null`},
		{"refinements missed", url.Values{"gender": {other},
			"year_from": {itoa(n.MaxYear + 50)}, "year_to": {itoa(n.MaxYear + 60)}},
			`["first_name","surname"]`, `null`},
	} {
		if exact, approx := fields(tc.params); exact != tc.exact || approx != tc.approx {
			t.Errorf("%s: exact_fields %s approx_fields %s, want %s and %s",
				tc.name, exact, approx, tc.exact, tc.approx)
		}
	}
}

// TestSearchAPIRequiresNames: a search needs both names, and no name or
// location value may be longer than maxQueryValue bytes — the boundary that
// keeps caller-chosen strings out of the index's probe path.
func TestSearchAPIRequiresNames(t *testing.T) {
	s, _ := testServer(t)
	s.EnableExplain()
	long := strings.Repeat("x", maxQueryValue+1)
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/api/search?first_name=mary", http.StatusBadRequest},
		{"/api/search?first_name=mary&surname=" + long[1:], http.StatusOK},
		{"/api/search?first_name=mary&surname=" + long, http.StatusBadRequest},
		{"/api/search?first_name=" + long + "&surname=macdonald", http.StatusBadRequest},
		{"/api/search?first_name=mary&surname=macdonald&location=" + long, http.StatusBadRequest},
		{"/api/explain?id=0&first_name=mary&surname=" + long, http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", tc.target, nil))
		if w.Code != tc.want {
			t.Errorf("GET %.60s: status %d, want %d", tc.target, w.Code, tc.want)
		}
	}
}

func TestPedigreeAPI(t *testing.T) {
	s, g := testServer(t)
	// Pick an entity with edges so the pedigree is non-trivial.
	var id pedigree.NodeID = -1
	for i := range g.Nodes {
		if len(g.Nodes[i].Edges) > 0 {
			id = g.Nodes[i].ID
			break
		}
	}
	if id < 0 {
		t.Skip("no connected entity")
	}
	req := httptest.NewRequest("GET", "/api/pedigree?id="+itoa(int(id)), nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp PedigreeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Focus != int32(id) {
		t.Errorf("focus = %d, want %d", resp.Focus, id)
	}
	if len(resp.Members) < 2 {
		t.Errorf("pedigree has %d members, want >= 2", len(resp.Members))
	}
	if resp.Members[0].Hops != 0 {
		t.Error("members not sorted by hops")
	}
	if resp.Text == "" {
		t.Error("missing text rendering")
	}
}

func TestPedigreeAPIBadID(t *testing.T) {
	s, _ := testServer(t)
	for _, q := range []string{"id=abc", "id=-1", "id=99999999", ""} {
		req := httptest.NewRequest("GET", "/api/pedigree?"+q, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, w.Code)
		}
	}
}

func TestHomeHTML(t *testing.T) {
	s, g := testServer(t)
	req := httptest.NewRequest("GET", "/", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "Scotland Family Pedigree Search Tool") {
		t.Error("missing page title")
	}

	// With query parameters the page renders a results table.
	first, sur := someName(g)
	req = httptest.NewRequest("GET", "/?first_name="+first+"&surname="+sur, nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "Explore") {
		t.Error("results table missing Explore links")
	}
}

func TestPedigreeHTML(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest("GET", "/pedigree?id=0", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "Family pedigree") {
		t.Error("missing pedigree page")
	}
}

func TestNotFound(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest("GET", "/nonexistent", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", w.Code)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestFeedbackEndpoints(t *testing.T) {
	s, _ := testServer(t)
	h := s.EnableFeedback()

	// Record a decision.
	req := httptest.NewRequest("POST", "/api/feedback?a=0&b=1&decision=confirm", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNoContent {
		t.Fatalf("POST status %d: %s", w.Code, w.Body.String())
	}
	if h.Journal().Len() != 1 {
		t.Fatal("decision not journalled")
	}

	// Summary reflects it.
	req = httptest.NewRequest("GET", "/api/feedback", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var st struct {
		Decisions int `json:"decisions"`
		MustLink  int `json:"must_link"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Decisions != 1 || st.MustLink != 1 {
		t.Fatalf("summary %+v", st)
	}

	// Invalid requests are rejected.
	for _, q := range []string{
		"a=0&b=0&decision=confirm",       // same record
		"a=-1&b=1&decision=confirm",      // out of range
		"a=0&b=99999999&decision=reject", // out of range
		"a=0&b=1&decision=maybe",         // bad decision
	} {
		req = httptest.NewRequest("POST", "/api/feedback?"+q, nil)
		w = httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, w.Code)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, g := testServer(t)
	s.EnableStats()
	req := httptest.NewRequest("GET", "/api/stats", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Entities != len(g.Nodes) {
		t.Errorf("entities %d, want %d", st.Entities, len(g.Nodes))
	}
	if st.Births == 0 || st.Deaths == 0 {
		t.Error("certificate counts missing")
	}
}

func TestPedigreeDotEndpoint(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest("GET", "/api/pedigree.dot?id=0", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.HasPrefix(w.Body.String(), "digraph pedigree {") {
		t.Errorf("not a dot document:\n%s", w.Body.String()[:60])
	}
	req = httptest.NewRequest("GET", "/api/pedigree.dot?id=bad", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad id should 400, got %d", w.Code)
	}
}

func TestPedigreeGedcomEndpoint(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest("GET", "/api/pedigree.ged?id=0", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, "0 HEAD\n") || !strings.HasSuffix(body, "0 TRLR\n") {
		t.Error("not a GEDCOM document")
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, g := testServer(t)
	s.EnableExplain()
	first, sur := someName(g)
	req := httptest.NewRequest("GET", "/api/explain?id=0&first_name="+first+"&surname="+sur, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Entity int32   `json:"entity"`
		Score  float64 `json:"score"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Entity != 0 || resp.Score < 0 || resp.Score > 100 {
		t.Errorf("bad explanation: %+v", resp)
	}
	req = httptest.NewRequest("GET", "/api/explain?id=bad&first_name=a&surname=b", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad id should 400, got %d", w.Code)
	}
}
