package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/obs"
)

// scrape fetches /metrics and returns the parsed samples: series name
// (with labels) to value.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	return parseExposition(t, w.Body.String())
}

// sampleRE is one non-comment line of the text exposition format.
var sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^{}]*\})?) ([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?|NaN)$`)

// parseExposition checks every line of the exposition parses and returns
// the samples.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("unknown comment line %q", line)
			}
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		out[m[1]] = v
	}
	return out
}

// sumFamily totals every series of one family (across label sets).
func sumFamily(samples map[string]float64, family string) float64 {
	total := 0.0
	for name, v := range samples {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return total
}

func TestMetricsEndpoint(t *testing.T) {
	s, g := testServer(t)
	first, sur := someName(g)

	before := scrape(t, s)

	// Serve a search and a not-found so two status classes are recorded.
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("search status %d", w.Code)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/api/search", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad search status %d", w.Code)
	}

	after := scrape(t, s)

	// Counters must be present, nonzero, and monotonic across requests.
	reqBefore, reqAfter := sumFamily(before, "snaps_http_requests_total"), sumFamily(after, "snaps_http_requests_total")
	if reqAfter == 0 {
		t.Fatal("snaps_http_requests_total missing or zero after requests")
	}
	if reqAfter < reqBefore+2 {
		t.Fatalf("request counter not monotonic: %v -> %v", reqBefore, reqAfter)
	}
	searchRoute := `snaps_http_requests_total{route="/api/search",code="2xx"}`
	if after[searchRoute] < 1 {
		t.Fatalf("per-route counter %s = %v, want >= 1", searchRoute, after[searchRoute])
	}
	badRoute := `snaps_http_requests_total{route="/api/search",code="4xx"}`
	if after[badRoute] < 1 {
		t.Fatalf("per-route counter %s = %v, want >= 1", badRoute, after[badRoute])
	}
	if sumFamily(after, "snaps_query_searches_total") < 1 {
		t.Fatal("snaps_query_searches_total missing after a search")
	}
	// The request latency histogram must carry the served requests, one
	// series per status class.
	if v := after[`snaps_http_request_seconds_count{route="/api/search",code="2xx"}`]; v < 1 {
		t.Fatalf("2xx latency histogram count %v, want >= 1", v)
	}
	if v := after[`snaps_http_request_seconds_count{route="/api/search",code="4xx"}`]; v < 1 {
		t.Fatalf("4xx latency histogram count %v, want >= 1", v)
	}
	// A series that never counted a response stays out of the exposition.
	for _, name := range []string{
		`snaps_http_requests_total{route="/api/search",code="5xx"}`,
		`snaps_http_request_seconds_count{route="/api/search",code="5xx"}`,
	} {
		if _, ok := after[name]; ok {
			t.Errorf("%s exposed without a 5xx response", name)
		}
	}
	// A scrape itself is counted: /metrics appears as a route.
	if sumFamily(after, `snaps_http_requests_total{route="/metrics",code="2xx"}`) < 1 {
		t.Fatal("the /metrics route is not itself instrumented")
	}
}

// TestMetricsOpenMetricsNegotiation checks the Accept-header switch: the
// OpenMetrics rendition carries trace-ID exemplars and the # EOF
// terminator; the default 0.0.4 rendition carries neither.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	srv, g := testServer(t)
	first, sur := someName(g)
	if w := do(srv, "GET", "/api/search?first_name="+first+"&surname="+sur); w.Code != http.StatusOK {
		t.Fatalf("search status %d", w.Code)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("openmetrics scrape status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("openmetrics content type %q", ct)
	}
	body := w.Body.String()
	if !strings.HasSuffix(strings.TrimRight(body, "\n"), "# EOF") {
		t.Error("OpenMetrics body does not end with # EOF")
	}
	if !strings.Contains(body, `trace_id="`) {
		t.Error("OpenMetrics body has no trace-ID exemplars after a traced search")
	}
	// The request-latency histogram family carries an exemplar on a bucket
	// of the route that served the search.
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "snaps_http_request_seconds_bucket") &&
			strings.Contains(line, `route="/api/search"`) && strings.Contains(line, " # {") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no exemplar on the /api/search latency buckets")
	}

	// Classic scrape: text/plain, no exemplars, no EOF marker.
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("classic content type %q", ct)
	}
	if strings.Contains(w.Body.String(), " # {") {
		t.Error("classic 0.0.4 body contains exemplars")
	}
	if strings.Contains(w.Body.String(), "# EOF") {
		t.Error("classic 0.0.4 body contains # EOF")
	}
}

// TestMetricsScrapeUnderConcurrentLoad is the acceptance race test: both
// exposition formats are scraped continuously while scatter-gather
// searches, pedigree renders, and ingest flushes run — with the SLO
// tracker attached. Run under -race in CI.
func TestMetricsScrapeUnderConcurrentLoad(t *testing.T) {
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1 // flush on every certificate
	cfg.MaxAge = 10 * time.Millisecond
	srv, _ := shardedFamily(t, 4, cfg)
	srv.EnableSLO(obs.NewSLOTracker(0, 0, 0))
	srv.EnableHealth(nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}

	// Searchers: scatter-gather across all four shards.
	for i := 0; i < 4; i++ {
		run(func() {
			do(srv, "GET", "/api/search?first_name=torquil&surname=macsween")
		})
	}
	// Pedigree renders exercise the per-shard engines.
	run(func() { do(srv, "GET", "/api/pedigree?id=0") })
	// Ingest: every certificate triggers a flush and a snapshot swap.
	year := 1900
	run(func() {
		body := hotShardBirthJSON("racer", "clanrace", year)
		year++
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/ingest", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(w, req)
	})
	// Scrapers: classic and OpenMetrics, plus health (reads the SLO ring).
	run(func() {
		if w := do(srv, "GET", "/metrics"); w.Code != http.StatusOK {
			t.Error("classic scrape failed")
		}
	})
	run(func() {
		req := httptest.NewRequest("GET", "/metrics", nil)
		req.Header.Set("Accept", "application/openmetrics-text")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Error("openmetrics scrape failed")
		}
	})
	run(func() { do(srv, "GET", "/healthz") })

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestRuntimeGaugesOnScrape(t *testing.T) {
	s, _ := testServer(t)
	samples := scrape(t, s)

	if v := sumFamily(samples, "snaps_goroutines"); v < 1 {
		t.Errorf("snaps_goroutines = %v, want >= 1", v)
	}
	if v := sumFamily(samples, "snaps_heap_alloc_bytes"); v <= 0 {
		t.Errorf("snaps_heap_alloc_bytes = %v, want > 0", v)
	}
	found := false
	for name := range samples {
		if name == "snaps_gc_pause_seconds_total" {
			found = true
		}
	}
	if !found {
		t.Error("snaps_gc_pause_seconds_total missing from scrape")
	}
	if v := sumFamily(samples, "snaps_build_info"); v != 1 {
		t.Errorf("snaps_build_info = %v, want constant 1", v)
	}
	for name := range samples {
		if strings.HasPrefix(name, "snaps_build_info{") {
			if !strings.Contains(name, `go_version="go`) {
				t.Errorf("build info series lacks go_version label: %s", name)
			}
			return
		}
	}
	t.Error("snaps_build_info has no labels")
}

func TestMetricsEndpointMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/metrics", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", w.Code)
	}
}

func TestPprofGatedBehindEnable(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusNotFound {
			t.Fatalf("GET %s without EnablePprof: status %d, want 404", path, w.Code)
		}
	}

	s.EnablePprof()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ after EnablePprof: status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{200: "2xx", 204: "2xx", 302: "3xx", 404: "4xx", 500: "5xx", 503: "5xx"} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %s, want %s", code, got, want)
		}
	}
}
