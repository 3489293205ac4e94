package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/obs"
)

// do issues one request against the server and returns the recorder.
func do(s *Server, method, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, target, nil))
	return w
}

// wantRetryAfter asserts a 429 carries a Retry-After header that parses to
// a sane whole number of seconds (at least 1 — a zero or fractional hint
// would make clients hammer straight back).
func wantRetryAfter(t *testing.T, w *httptest.ResponseRecorder) {
	t.Helper()
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer seconds >= 1", ra)
	}
}

// TestShedOrderingUnderSaturation drives the degradation ladder through
// real HTTP: with the weighted budget partially occupied, pedigree renders
// (ceiling: half the budget) are rejected while searches (ceiling: full
// budget) still answer; with the budget exhausted searches are rejected
// too — and /metrics plus /healthz keep answering throughout. Occupancy is
// created by holding admissions directly on the controller rather than by
// timing a saturating burst, so the ordering assertions are deterministic.
func TestShedOrderingUnderSaturation(t *testing.T) {
	srv, g := testServer(t)
	first, sur := someName(g)
	searchURL := "/api/search?first_name=" + first + "&surname=" + sur

	cfg := admission.DefaultConfig()
	cfg.MaxConcurrency = 16 // ceilings: pedigree 8, ingest 12, search 16
	ctrl := admission.New(cfg)
	srv.EnableAdmission(ctrl)
	srv.EnableHealth(nil)

	pedShedBefore := obs.Default.Counter(
		"snaps_admission_shed_total{"+obs.Label("class", "pedigree")+","+obs.Label("reason", "concurrency")+"}", "").Value()
	searchShedBefore := obs.Default.Counter(
		"snaps_admission_shed_total{"+obs.Label("class", "search")+","+obs.Label("reason", "concurrency")+"}", "").Value()

	// Unloaded: everything answers.
	if w := do(srv, "GET", searchURL); w.Code != http.StatusOK {
		t.Fatalf("unloaded search: status %d", w.Code)
	}
	if w := do(srv, "GET", "/api/pedigree?id=0"); w.Code != http.StatusOK {
		t.Fatalf("unloaded pedigree: status %d", w.Code)
	}

	// Hold 6 of 16 weighted units: over the pedigree admission ceiling
	// (6+4 > 8), well under the search ceiling (6+1 <= 16).
	var releases []func()
	hold := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rel, d := ctrl.Admit(admission.Search)
			if !d.Admitted {
				t.Fatalf("setup admission shed: %+v", d)
			}
			releases = append(releases, rel)
		}
	}
	hold(6)

	// The saturating burst: pedigree requests shed with 429 + Retry-After
	// while search traffic keeps flowing.
	for i := 0; i < 4; i++ {
		w := do(srv, "GET", "/api/pedigree?id=0")
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("pedigree burst %d: status %d, want 429", i, w.Code)
		}
		wantRetryAfter(t, w)
		if w := do(srv, "GET", searchURL); w.Code != http.StatusOK {
			t.Fatalf("search during pedigree shed: status %d, want 200", w.Code)
		}
	}

	// Exhaust the budget: now searches shed too, but the exempt routes
	// (metrics, health) still answer — health flips to 503/overloaded.
	hold(10)
	w := do(srv, "GET", searchURL)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("search at full budget: status %d, want 429", w.Code)
	}
	wantRetryAfter(t, w)
	if w := do(srv, "GET", "/metrics"); w.Code != http.StatusOK {
		t.Fatalf("/metrics during saturation: status %d", w.Code)
	}
	if w := do(srv, "GET", "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during saturation: status %d, want 503", w.Code)
	}

	// The shed counters prove the ordering: pedigree shed while search
	// was not, then search shed as well.
	samples := scrape(t, srv)
	pedShed := samples["snaps_admission_shed_total{"+obs.Label("class", "pedigree")+","+obs.Label("reason", "concurrency")+"}"] - float64(pedShedBefore)
	searchShed := samples["snaps_admission_shed_total{"+obs.Label("class", "search")+","+obs.Label("reason", "concurrency")+"}"] - float64(searchShedBefore)
	if pedShed < 4 {
		t.Fatalf("pedigree concurrency sheds = %v, want >= 4", pedShed)
	}
	if searchShed < 1 {
		t.Fatalf("search concurrency sheds = %v, want >= 1", searchShed)
	}
	if pedShed <= searchShed {
		t.Fatalf("shed ordering violated: pedigree %v sheds vs search %v — pedigree must shed first",
			pedShed, searchShed)
	}

	// Recovery: releasing the held admissions restores service and health.
	for _, rel := range releases {
		rel()
	}
	if n := ctrl.Inflight(); n != 0 {
		t.Fatalf("inflight after release = %d, want 0", n)
	}
	if w := do(srv, "GET", "/api/pedigree?id=0"); w.Code != http.StatusOK {
		t.Fatalf("pedigree after recovery: status %d", w.Code)
	}
	if w := do(srv, "GET", "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz after recovery: status %d", w.Code)
	}
}

// TestIngestBacklogBackpressureHTTP covers the memory-protection path: once
// the unflushed ingest backlog crosses the configured record bound, POST
// /api/ingest returns 429 with a Retry-After matching the flush horizon,
// and a flush reopens admission.
func TestIngestBacklogBackpressureHTTP(t *testing.T) {
	icfg := ingest.DefaultConfig()
	icfg.BatchSize = 1 << 20 // flush only when the test says so
	srv, pipe := ingestFamily(t, icfg)

	acfg := admission.DefaultConfig()
	acfg.MaxBacklogRecords = 2
	acfg.BacklogRetryAfter = 3 * time.Second
	acfg.Backlog = pipe.Backlog
	srv.EnableAdmission(admission.New(acfg))
	srv.EnableHealth(pipe)

	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/ingest",
			strings.NewReader(torquilDeathJSON))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(w, req)
		return w
	}

	// The first two submissions fill the backlog to the bound.
	for i := 0; i < 2; i++ {
		if w := post(); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if rec, _ := pipe.Backlog(); rec != 2 {
		t.Fatalf("backlog records = %d, want 2", rec)
	}

	// At the bound: shed with the flush-horizon Retry-After, health 503.
	w := post()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over backlog: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want %q (the flush horizon)", ra, "3")
	}
	if w := do(srv, "GET", "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz over backlog: status %d, want 503", w.Code)
	}

	// Search traffic is untouched by ingest backpressure.
	if w := do(srv, "GET", "/api/search?first_name=torquil&surname=macsween"); w.Code != http.StatusOK {
		t.Fatalf("search during ingest backpressure: status %d", w.Code)
	}

	// Draining the backlog reopens ingest admission.
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := post(); w.Code != http.StatusAccepted {
		t.Fatalf("submit after flush: status %d: %s", w.Code, w.Body.String())
	}
}

// TestNewStackBacklogBoundWithoutConcurrencyLimit pins one meaning per
// admission bound: MaxConcurrency 0 lifts the concurrency limit alone, and
// the ingest backlog bound still sheds, with the flush horizon as
// Retry-After.
func TestNewStackBacklogBoundWithoutConcurrencyLimit(t *testing.T) {
	icfg := ingest.DefaultConfig()
	icfg.BatchSize = 1 << 20 // no flush during the test
	icfg.MaxAge = time.Hour
	acfg := admission.DefaultConfig()
	acfg.MaxConcurrency = 0
	acfg.MaxBacklogRecords = 1
	srv, err := NewStack(familyServing(1, icfg), nil, nil, icfg, acfg)
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/ingest", strings.NewReader(torquilDeathJSON))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(w, req)
		return w
	}
	if w := post(); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", w.Code, w.Body.String())
	}
	w := post()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second unflushed submit: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3600" {
		t.Fatalf("Retry-After %q, want %q (the flush horizon)", ra, "3600")
	}
}

// TestClassifyEveryRoute pins the admission class of every pattern the mux
// registers once every Enable* surface is mounted. The registered set is
// read from this package's source, so a new route without a row here fails
// instead of silently landing in Exempt.
func TestClassifyEveryRoute(t *testing.T) {
	want := map[string]admission.Class{
		"/{$}":                 admission.Search,
		"/api/search":          admission.Search,
		"/api/explain":         admission.Search,
		"/api/pedigree":        admission.Pedigree,
		"/api/pedigree.dot":    admission.Pedigree,
		"/api/pedigree.ged":    admission.Pedigree,
		"/pedigree":            admission.Pedigree,
		"/api/ingest":          admission.Ingest,
		"/api/ingest/status":   admission.Exempt,
		"/api/feedback":        admission.Exempt,
		"/api/stats":           admission.Exempt,
		"/api/debug/traces":    admission.Exempt,
		"/healthz":             admission.Exempt,
		"/metrics":             admission.Exempt,
		"/debug/pprof/":        admission.Exempt,
		"/debug/pprof/cmdline": admission.Exempt,
		"/debug/pprof/profile": admission.Exempt,
		"/debug/pprof/symbol":  admission.Exempt,
		"/debug/pprof/trace":   admission.Exempt,
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	handleRE := regexp.MustCompile(`s\.handle\("([^"]+)"`)
	// A pattern registered on the mux directly would have no bound route.
	muxRE := regexp.MustCompile(`mux\.Handle(?:Func)?\("([^"]+)"`)
	registered := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range muxRE.FindAllStringSubmatch(string(src), -1) {
			t.Errorf("%s registers %q on the mux directly, not through s.handle", f, m[1])
		}
		for _, m := range handleRE.FindAllStringSubmatch(string(src), -1) {
			registered++
			if _, ok := want[m[1]]; !ok {
				t.Errorf("%s registers %q, which has no admission class in this table", f, m[1])
			}
		}
	}
	if registered != len(want) {
		t.Errorf("source registers %d patterns, the table pins %d", registered, len(want))
	}

	srv, pipe := ingestFamily(t, ingest.DefaultConfig())
	srv.EnableStats()
	srv.EnableFeedback()
	srv.EnableExplain()
	srv.EnableHealth(pipe)
	srv.EnableTraceDebug()
	srv.EnablePprof()
	for pattern, class := range want {
		// "/{$}" is the pattern of the path "/" alone, and its label.
		path := strings.TrimSuffix(pattern, "{$}")
		if _, got := srv.mux.Handler(httptest.NewRequest("GET", path, nil)); got != pattern {
			t.Errorf("GET %s routes to pattern %q: not registered after every Enable* call", path, got)
		}
		if got := classifyRoute(pattern); got != class {
			t.Errorf("classifyRoute(%q) = %v, want %v", pattern, got, class)
		}
		if rt := (*srv.routes.Load())[pattern]; rt == nil || rt.class != class || rt.pattern != path {
			t.Errorf("the bound route of %q is %+v, want class %v", pattern, rt, class)
		}
	}
}

// TestUnknownPathIsNotTheHomePage sends a path no route registers while the
// search class sheds: it is a 404 under route="unmatched", exempt from
// admission, and the home page's own series keeps route="/".
func TestUnknownPathIsNotTheHomePage(t *testing.T) {
	srv, _ := testServer(t)
	cfg := admission.DefaultConfig()
	cfg.MaxConcurrency = 4
	ctrl := admission.New(cfg)
	srv.EnableAdmission(ctrl)
	series := func(route, code string) string {
		return "snaps_http_requests_total{" + obs.Label("route", route) + "," + obs.Label("code", code) + "}"
	}
	before := scrape(t, srv)

	var releases []func()
	for range cfg.MaxConcurrency {
		rel, d := ctrl.Admit(admission.Search)
		if !d.Admitted {
			t.Fatalf("setup admission shed: %+v", d)
		}
		releases = append(releases, rel)
	}
	if w := do(srv, "GET", "/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("GET /nope with the search class shedding: status %d, want 404", w.Code)
	}
	if w := do(srv, "GET", "/"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("GET / with the search class shedding: status %d, want 429", w.Code)
	}
	for _, rel := range releases {
		rel()
	}
	if w := do(srv, "GET", "/"); w.Code != http.StatusOK {
		t.Fatalf("GET /: status %d", w.Code)
	}

	after := scrape(t, srv)
	for name, want := range map[string]float64{
		series("unmatched", "4xx"): 1,
		series("/", "4xx"):         1, // the 429
		series("/", "2xx"):         1,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s rose by %v, want %v", name, got, want)
		}
	}
}

// TestHealthzReportsBacklog checks the readiness payload reflects the
// pipeline: generation and unflushed backlog counts.
func TestHealthzReportsBacklog(t *testing.T) {
	icfg := ingest.DefaultConfig()
	icfg.BatchSize = 1 << 20
	srv, pipe := ingestFamily(t, icfg)
	srv.EnableHealth(pipe)

	w := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/api/ingest", strings.NewReader(torquilDeathJSON))
	req.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}

	w = do(srv, "GET", "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d", w.Code)
	}
	var resp HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Status != "ok" {
		t.Fatalf("status %q, want ok", resp.Status)
	}
	if resp.BacklogRecords != 1 || resp.BacklogBytes <= 0 {
		t.Fatalf("backlog = %d records / %d bytes, want 1 record and positive bytes",
			resp.BacklogRecords, resp.BacklogBytes)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}

	w = do(srv, "GET", "/healthz")
	var after HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &after); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if after.Generation != resp.Generation+1 {
		t.Fatalf("generation %d -> %d, want +1 after flush", resp.Generation, after.Generation)
	}
	if after.BacklogRecords != 0 || after.BacklogBytes != 0 {
		t.Fatalf("backlog after flush = %d records / %d bytes, want 0/0",
			after.BacklogRecords, after.BacklogBytes)
	}
}
