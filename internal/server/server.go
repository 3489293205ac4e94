// Package server exposes the online component of SNAPS over HTTP: the query
// form, the ranked result list (Figs. 5-6 of the paper), and the family
// pedigree view (Figs. 7-8), as both a minimal HTML interface and a JSON
// API.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/gedcom"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
	"github.com/snaps/snaps/internal/vitalio"
)

// Server serves the SNAPS web interface for one built data set. The shard
// coordinator (graph + per-shard engines and indexes) is held behind an
// atomic pointer so the live ingestion subsystem can hot-swap a freshly
// rebuilt generation without blocking request handlers: each request loads
// the pointer once and works on that consistent snapshot for its whole
// lifetime.
type Server struct {
	serving atomic.Pointer[shard.Coordinator]
	// Generations is the pedigree extraction depth g (paper: 2).
	Generations int
	mux         *http.ServeMux
	// routes maps every mux pattern, and "" for a request no pattern
	// matches, to what ServeHTTP needs of it, bound at registration.
	// Registering copies the map; a request reads it without a lock.
	routes   atomic.Pointer[map[string]*route]
	routesMu sync.Mutex
	tracer   *obs.Tracer
	// admit, when set (EnableAdmission), decides every request before its
	// handler runs: weighted concurrency limits and ingest backpressure,
	// with the pedigree-before-search degradation ladder.
	admit *admission.Controller
	// slo, when set (EnableSLO), tracks every response against the latency
	// and error budgets; /healthz reports its 1m/5m burn rates.
	slo *obs.SLOTracker
}

// NewSharded wires the handlers around a shard coordinator: searches
// scatter-gather across its shards (a direct engine call at one shard) and
// explanations route to the owning shard.
func NewSharded(coord *shard.Coordinator) *Server {
	s := &Server{Generations: 2, mux: http.NewServeMux(), tracer: obs.NewTracer(256)}
	s.serving.Store(coord)
	s.routes.Store(&map[string]*route{"": newRoute("")})
	s.handle("/{$}", s.handleHome)
	s.handle("/api/search", s.handleSearch)
	s.handle("/api/pedigree", s.handlePedigree)
	s.handle("/api/pedigree.dot", s.handlePedigreeDot)
	s.handle("/api/pedigree.ged", s.handlePedigreeGedcom)
	s.handle("/pedigree", s.handlePedigreeHTML)
	s.handle("/metrics", s.handleMetrics)
	return s
}

// handle registers a handler on the mux and binds its route.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.bindRoute(pattern)
}

// bindRoute adds the route of pattern to a copy of the routes map.
func (s *Server) bindRoute(pattern string) {
	s.routesMu.Lock()
	defer s.routesMu.Unlock()
	routes := maps.Clone(*s.routes.Load())
	routes[pattern] = newRoute(pattern)
	s.routes.Store(&routes)
}

// Coordinator returns the currently served shard coordinator.
func (s *Server) Coordinator() *shard.Coordinator { return s.serving.Load() }

// Graph returns the currently served pedigree graph.
func (s *Server) Graph() *pedigree.Graph { return s.Coordinator().Graph() }

// SetCoordinator atomically swaps the served shard coordinator. In-flight
// requests keep the generation they loaded; new requests see the new one.
func (s *Server) SetCoordinator(c *shard.Coordinator) { s.serving.Store(c) }

// Tracer returns the server's span tracer, for configuring slow-query
// logging and for sharing with the ingest pipeline so flush traces land in
// the same ring buffer the debug endpoint serves.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ServeHTTP implements http.Handler. Every request is timed and counted
// under its mux route pattern (bounded cardinality) and status class, and
// runs under a root span: an inbound X-Request-ID becomes the trace ID
// (minted otherwise) and is echoed on the response, so clients, log
// records, and GET /api/debug/traces all correlate on one ID.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, pattern := s.mux.Handler(r)
	rt := (*s.routes.Load())[pattern]
	ctx, span := s.tracer.StartRoot(r.Context(), rt.spanName(r.Method), r.Header.Get("X-Request-Id"))
	traceID := obs.TraceIDFromContext(ctx)
	w.Header().Set("X-Request-Id", traceID)
	start := time.Now()

	// Admission runs before the handler: a shed request never touches the
	// engine or the pedigree graph, it only costs the decision itself.
	if s.admit != nil {
		release, dec := s.admit.Admit(rt.class)
		if !dec.Admitted {
			shed(w, dec)
			span.SetAttr("shed", 1)
			span.SetAttrStr("shed_reason", dec.Reason)
			span.SetAttr("status", http.StatusTooManyRequests)
			span.End()
			d := time.Since(start)
			rt.observe(http.StatusTooManyRequests, d, traceID)
			if s.slo != nil {
				s.slo.Observe(http.StatusTooManyRequests, d)
			}
			return
		}
		defer release()
	}

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	span.SetAttr("status", int64(sw.status))
	span.End()
	d := time.Since(start)
	rt.observe(sw.status, d, traceID)
	if s.slo != nil {
		s.slo.Observe(sw.status, d)
	}
}

// SearchResult is one row of the JSON result list. Exact and Approx are
// shared between rows and responses: read them, never write them.
type SearchResult struct {
	Entity    int32    `json:"entity"`
	Name      string   `json:"name"`
	FirstName string   `json:"first_name"`
	Surname   string   `json:"surname"`
	Gender    string   `json:"gender"`
	Year      int      `json:"year"`
	Location  string   `json:"location"`
	Score     float64  `json:"score"`
	Exact     []string `json:"exact_fields"`
	Approx    []string `json:"approx_fields"`
}

// fieldLists[mask] names the fields of the bitmask mask (bit f for
// index.Field f) in field order, nil for none: a row's exact_fields and
// approx_fields, written once for every combination instead of per row.
var fieldLists = func() (lists [1 << index.NumFields][]string) {
	for mask := range lists {
		for f := index.Field(0); f < index.NumFields; f++ {
			if mask&(1<<f) != 0 {
				lists[mask] = append(lists[mask], f.String())
			}
		}
	}
	return lists
}()

// PedigreeResponse is the JSON pedigree view.
type PedigreeResponse struct {
	Focus   int32            `json:"focus"`
	Members []PedigreeMember `json:"members"`
	Edges   []PedigreeEdge   `json:"edges"`
	Text    string           `json:"text"`
}

// PedigreeMember is one entity in the extracted pedigree.
type PedigreeMember struct {
	Entity int32  `json:"entity"`
	Name   string `json:"name"`
	Gender string `json:"gender"`
	Birth  int    `json:"birth_year,omitempty"`
	Death  int    `json:"death_year,omitempty"`
	Hops   int    `json:"hops"`
}

// PedigreeEdge is one relationship in the extracted pedigree.
type PedigreeEdge struct {
	From int32  `json:"from"`
	To   int32  `json:"to"`
	Rel  string `json:"rel"`
}

func (s *Server) parseQuery(r *http.Request) query.Query {
	q := query.Query{
		FirstName: vitalio.Norm(r.FormValue("first_name")),
		Surname:   vitalio.Norm(r.FormValue("surname")),
		Location:  vitalio.Norm(r.FormValue("location")),
		YearFrom:  query.ParseYear(r.FormValue("year_from")),
		YearTo:    query.ParseYear(r.FormValue("year_to")),
	}
	switch r.FormValue("gender") {
	case "m":
		q.Gender = model.Male
	case "f":
		q.Gender = model.Female
	}
	switch r.FormValue("type") {
	case "b":
		q.CertType, q.HasCertType = model.Birth, true
	case "d":
		q.CertType, q.HasCertType = model.Death, true
	}
	return q
}

// maxQueryValue bounds first_name, surname and location in bytes. Every
// generated and BHIC-style name fits, and the similarity index's probe
// cache, which holds the values it is sent, stays bounded in bytes too.
const maxQueryValue = 128

// checkQuery reports why a query is answered 400 instead of searched.
func checkQuery(q query.Query) error {
	if q.FirstName == "" || q.Surname == "" {
		return fmt.Errorf("first_name and surname are required")
	}
	if max(len(q.FirstName), len(q.Surname), len(q.Location)) > maxQueryValue {
		return fmt.Errorf("first_name, surname and location may not exceed %d bytes", maxQueryValue)
	}
	return nil
}

// search runs the query against the currently served coordinator and also
// reports that coordinator's snapshot generation, so handlers can stamp
// responses with the generation that produced them.
func (s *Server) search(ctx context.Context, q query.Query) ([]SearchResult, uint64, error) {
	if err := checkQuery(q); err != nil {
		return nil, 0, err
	}
	c := s.Coordinator()
	results := c.SearchContext(ctx, q)
	g := c.Graph()
	var names displayNames
	for _, res := range results {
		names.reserve(g.Node(res.Entity))
	}
	out := make([]SearchResult, 0, len(results))
	for _, res := range results {
		n := g.Node(res.Entity)
		sr := SearchResult{
			Entity: int32(res.Entity),
			Name:   names.of(n),
			Gender: n.Gender.String(),
			Score:  res.Score,
		}
		if len(n.FirstNames) > 0 {
			sr.FirstName = n.FirstNames[0]
		}
		if len(n.Surnames) > 0 {
			sr.Surname = n.Surnames[0]
		}
		if len(n.Locations) > 0 {
			sr.Location = n.Locations[0]
		}
		if n.BirthYear != 0 {
			sr.Year = n.BirthYear
		} else {
			sr.Year = n.MinYear
		}
		var exact, approx int
		for f, m := range res.Matched {
			switch m {
			case query.MatchExact:
				exact |= 1 << f
			case query.MatchApprox:
				approx |= 1 << f
			}
		}
		sr.Exact, sr.Approx = fieldLists[exact], fieldLists[approx]
		out = append(out, sr)
	}
	return out, c.Generation(), nil
}

// SearchResponse is the JSON envelope of GET /api/search: the ranked rows
// plus the trace ID of the request that produced them, so a ranking can be
// correlated with its span tree in /api/debug/traces and with /api/explain
// output for any returned entity.
type SearchResponse struct {
	TraceID string         `json:"trace_id,omitempty"`
	Results []SearchResult `json:"results"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	out, gen, err := s.search(r.Context(), s.parseQuery(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The serving snapshot that produced this ranking: lets clients (and
	// the stress tests) correlate results with ingest generations.
	w.Header().Set("X-Snaps-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, SearchResponse{TraceID: obs.TraceIDFromContext(r.Context()), Results: out})
}

// displayNames writes the display names of one response into one buffer
// and cuts each from it: every node is reserved first, then named.
type displayNames struct {
	buf  strings.Builder
	size int
}

// reserve makes room for n's display name.
func (d *displayNames) reserve(n *pedigree.Node) {
	first, sur := n.NameParts()
	d.size += len(first) + 1 + len(sur)
}

// of returns n's display name, as Node.DisplayName does.
func (d *displayNames) of(n *pedigree.Node) string {
	d.buf.Grow(d.size)
	d.size = 0
	first, sur := n.NameParts()
	from := d.buf.Len()
	d.buf.WriteString(first)
	d.buf.WriteByte(' ')
	d.buf.WriteString(sur)
	return d.buf.String()[from:]
}

// nodeID parses the request's id parameter as a node of g.
func nodeID(r *http.Request, g *pedigree.Graph) (pedigree.NodeID, error) {
	id, err := strconv.Atoi(r.FormValue("id"))
	if err != nil || id < 0 || id >= len(g.Nodes) {
		return 0, fmt.Errorf("invalid entity id")
	}
	return pedigree.NodeID(id), nil
}

func (s *Server) extractPedigree(r *http.Request) (*PedigreeResponse, error) {
	g := s.Graph()
	id, err := nodeID(r, g)
	if err != nil {
		return nil, err
	}
	p := g.Extract(id, s.Generations)
	resp := &PedigreeResponse{Focus: int32(p.Focus), Text: g.RenderText(p),
		Members: make([]PedigreeMember, 0, len(p.Members))}
	if len(p.Edges) > 0 {
		resp.Edges = make([]PedigreeEdge, 0, len(p.Edges))
	}
	var names displayNames
	for member := range p.Members {
		names.reserve(g.Node(member))
	}
	for member, hops := range p.Members {
		n := g.Node(member)
		resp.Members = append(resp.Members, PedigreeMember{
			Entity: int32(member), Name: names.of(n),
			Gender: n.Gender.String(), Birth: n.BirthYear, Death: n.DeathYear,
			Hops: hops,
		})
	}
	// Deterministic order for clients and tests.
	slices.SortFunc(resp.Members, func(a, b PedigreeMember) int {
		return cmp.Or(cmp.Compare(a.Hops, b.Hops), cmp.Compare(a.Entity, b.Entity))
	})
	for _, e := range p.Edges {
		resp.Edges = append(resp.Edges, PedigreeEdge{
			From: int32(e.From), To: int32(e.To), Rel: e.Rel.String(),
		})
	}
	return resp, nil
}

func (s *Server) handlePedigree(w http.ResponseWriter, r *http.Request) {
	resp, err := s.extractPedigree(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

// handlePedigreeDot serves the Graphviz rendering of a pedigree, suitable
// for piping into dot(1) to obtain the tree images of Figs. 7-8.
func (s *Server) handlePedigreeDot(w http.ResponseWriter, r *http.Request) {
	g := s.Graph()
	id, err := nodeID(r, g)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := g.Extract(id, s.Generations)
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	fmt.Fprint(w, g.RenderDot(p))
}

// handlePedigreeGedcom serves one pedigree as a GEDCOM 5.5.1 document for
// import into mainstream family-tree software.
func (s *Server) handlePedigreeGedcom(w http.ResponseWriter, r *http.Request) {
	g := s.Graph()
	id, err := nodeID(r, g)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := g.Extract(id, s.Generations)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition", "attachment; filename=pedigree.ged")
	if err := gedcom.ExportPedigree(w, g, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// jsonBuffer is a response body being encoded: compact JSON, into a buffer
// the encoder keeps between requests.
type jsonBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBuffers = sync.Pool{New: func() any {
	b := new(jsonBuffer)
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// maxPooledJSON bounds the buffers the pool keeps: a body past it (a trace
// dump, say) is encoded once and its buffer left to the collector.
const maxPooledJSON = 64 << 10

// writeJSON answers 200 with v as compact JSON.
func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus answers status with v as compact JSON: encoded whole
// before anything is written, so an encoding error is a clean 500, and sent
// in one Write with its Content-Length.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	b := jsonBuffers.Get().(*jsonBuffer)
	defer func() {
		if b.buf.Cap() <= maxPooledJSON {
			b.buf.Reset()
			jsonBuffers.Put(b)
		}
	}()
	if err := b.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	w.Write(b.buf.Bytes())
}

var homeTmpl = template.Must(template.New("home").Parse(`<!doctype html>
<html><head><title>Scotland Family Pedigree Search Tool</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:4px 8px}
.exact{color:#060}.approx{color:#c60}
</style></head><body>
<h1>Scotland Family Pedigree Search Tool</h1>
<p>Anonymised data set used for querying.</p>
<form method="get" action="/">
  <label>Forename* <input name="first_name" value="{{.Q.FirstName}}"></label>
  <label>Surname* <input name="surname" value="{{.Q.Surname}}"></label>
  <label>Gender <select name="gender">
    <option value="">any</option>
    <option value="m" {{if eq .Gender "m"}}selected{{end}}>male</option>
    <option value="f" {{if eq .Gender "f"}}selected{{end}}>female</option>
  </select></label>
  <label>Year from <input name="year_from" size="4" value="{{if .Q.YearFrom}}{{.Q.YearFrom}}{{end}}"></label>
  <label>to <input name="year_to" size="4" value="{{if .Q.YearTo}}{{.Q.YearTo}}{{end}}"></label>
  <label>Parish/District <input name="location" value="{{.Q.Location}}"></label>
  <label>Records <select name="type">
    <option value="">any</option>
    <option value="b" {{if eq .Type "b"}}selected{{end}}>birth</option>
    <option value="d" {{if eq .Type "d"}}selected{{end}}>death</option>
  </select></label>
  <button type="submit">Submit</button>
</form>
{{if .Results}}
<h2>Query results</h2>
<table><tr><th>Forename</th><th>Surname</th><th>Gender</th><th>Year</th><th>Parish</th><th>Score</th><th></th></tr>
{{range .Results}}
<tr><td>{{.FirstName}}</td><td>{{.Surname}}</td><td>{{.Gender}}</td><td>{{.Year}}</td>
<td>{{.Location}}</td><td>{{printf "%.2f" .Score}}</td>
<td><a href="/pedigree?id={{.Entity}}">Explore</a></td></tr>
{{end}}</table>
{{end}}
</body></html>`))

var pedigreeTmpl = template.Must(template.New("pedigree").Parse(`<!doctype html>
<html><head><title>Family Pedigree</title>
<style>body{font-family:sans-serif;margin:2em}pre{background:#f4f4f4;padding:1em}</style>
</head><body>
<h1>Family pedigree</h1>
<p><a href="/">&laquo; back to search</a></p>
<pre>{{.Text}}</pre>
</body></html>`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	data := struct {
		Q       query.Query
		Gender  string
		Type    string
		Results []SearchResult
	}{
		Q:      s.parseQuery(r),
		Gender: r.FormValue("gender"),
		Type:   r.FormValue("type"),
	}
	// A blank form is not an error: the page just renders without results.
	data.Results, _, _ = s.search(r.Context(), data.Q)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := homeTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handlePedigreeHTML(w http.ResponseWriter, r *http.Request) {
	resp, err := s.extractPedigree(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pedigreeTmpl.Execute(w, resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// EnableExplain mounts GET /api/explain?id=N&first_name=..&surname=..[&...],
// returning the per-field score breakdown for one entity against a query —
// the data behind the result list's exact/approximate colour coding.
func (s *Server) EnableExplain() {
	s.handle("/api/explain", func(w http.ResponseWriter, r *http.Request) {
		c := s.Coordinator()
		id, err := nodeID(r, c.Graph())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q := s.parseQuery(r)
		if err := checkQuery(q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ex := c.Explain(q, id)
		type fieldJSON struct {
			Field        string  `json:"field"`
			QueryValue   string  `json:"query_value,omitempty"`
			MatchedValue string  `json:"matched_value,omitempty"`
			Similarity   float64 `json:"similarity"`
			Weight       float64 `json:"weight"`
			Contribution float64 `json:"contribution"`
			Exact        bool    `json:"exact"`
		}
		resp := struct {
			Entity int32       `json:"entity"`
			Score  float64     `json:"score"`
			Fields []fieldJSON `json:"fields"`
		}{Entity: int32(id), Score: ex.Score}
		for _, f := range ex.Fields {
			resp.Fields = append(resp.Fields, fieldJSON{
				Field: f.Field.String(), QueryValue: f.QueryValue,
				MatchedValue: f.MatchedValue, Similarity: f.Similarity,
				Weight: f.Weight, Contribution: f.Contribution, Exact: f.Exact,
			})
		}
		writeJSON(w, resp)
	})
}
