package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/obs"
)

func TestSearchReturnsTraceID(t *testing.T) {
	s, g := testServer(t)
	first, sur := someName(g)

	// Without an inbound X-Request-ID the server generates one and reports
	// it both in the response header and the body envelope.
	req := httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("no trace_id in search response")
	}
	if hdr := w.Header().Get("X-Request-ID"); hdr != resp.TraceID {
		t.Errorf("X-Request-ID header %q != body trace_id %q", hdr, resp.TraceID)
	}

	// An inbound X-Request-ID is honoured as the trace ID.
	req = httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "caller-supplied-7" {
		t.Errorf("trace_id %q, want the caller-supplied request ID", resp.TraceID)
	}
	if hdr := w.Header().Get("X-Request-ID"); hdr != "caller-supplied-7" {
		t.Errorf("X-Request-ID header %q not echoed", hdr)
	}
}

func TestTraceDebugGatedBehindEnable(t *testing.T) {
	s, _ := testServer(t)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/api/debug/traces", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET /api/debug/traces without EnableTraceDebug: status %d, want 404", w.Code)
	}

	s.EnableTraceDebug()
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/api/debug/traces", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /api/debug/traces after EnableTraceDebug: status %d", w.Code)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/api/debug/traces", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/debug/traces: status %d, want 405", w.Code)
	}
}

// TestSearchTraceSpanTree is the acceptance test of the tracing layer: a
// search leaves a trace in the ring whose search span has the three stage
// children — blocking, accumulate (the walk, which scores as it reads), rank
// — with durations summing to within the root span.
func TestSearchTraceSpanTree(t *testing.T) {
	s, g := testServer(t)
	s.EnableTraceDebug()
	first, sur := someName(g)

	req := httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil)
	req.Header.Set("X-Request-ID", "trace-tree-1")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("search status %d", w.Code)
	}

	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/api/debug/traces", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("traces status %d", w.Code)
	}
	var traces []obs.TraceSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &traces); err != nil {
		t.Fatalf("bad traces JSON: %v", err)
	}
	var snap *obs.TraceSnapshot
	for i := range traces {
		if traces[i].TraceID == "trace-tree-1" {
			snap = &traces[i]
			break
		}
	}
	if snap == nil {
		t.Fatalf("search trace not in debug ring (%d traces present)", len(traces))
	}
	if !strings.Contains(snap.Name, "/api/search") {
		t.Errorf("root span name %q does not identify the route", snap.Name)
	}

	searches := snap.SpansNamed("search")
	if len(searches) != 1 {
		t.Fatalf("got %d search spans, want 1", len(searches))
	}
	kids := snap.Children(searches[0].ID)
	want := []string{"blocking", "accumulate", "rank"}
	if len(kids) < len(want) {
		t.Fatalf("search span has %d children %v, want at least %v", len(kids), spanNames(kids), want)
	}
	byName := map[string]obs.SpanSnapshot{}
	var childSum int64
	for _, k := range kids {
		byName[k.Name] = k
		childSum += k.DurationUs
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Errorf("search span missing %q child (have %v)", name, spanNames(kids))
		}
	}
	// Stage durations sum to within the enclosing spans (allow 1us of
	// per-span truncation each).
	slack := int64(len(kids) + 1)
	if childSum > searches[0].DurationUs+slack {
		t.Errorf("stage durations (%dus) exceed the search span (%dus)", childSum, searches[0].DurationUs)
	}
	if searches[0].DurationUs > snap.DurationUs+slack {
		t.Errorf("search span (%dus) exceeds the root trace (%dus)", searches[0].DurationUs, snap.DurationUs)
	}
	// The stages ran in order.
	for i := 1; i < len(want); i++ {
		if byName[want[i]].StartUs < byName[want[i-1]].StartUs {
			t.Errorf("%s started before %s", want[i], want[i-1])
		}
	}
	// The stage spans carry their workload attributes.
	if !hasAttr(byName["blocking"], "memo_hits") {
		t.Errorf("blocking span lacks memo_hits attr: %+v", byName["blocking"].Attrs)
	}
	for _, key := range []string{"candidates", "entries", "stopped"} {
		if !hasAttr(byName["accumulate"], key) {
			t.Errorf("accumulate span lacks %s attr: %+v", key, byName["accumulate"].Attrs)
		}
	}
	if !hasAttr(byName["rank"], "results") {
		t.Errorf("rank span lacks results attr: %+v", byName["rank"].Attrs)
	}
}

func spanNames(spans []obs.SpanSnapshot) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func hasAttr(s obs.SpanSnapshot, key string) bool {
	for _, a := range s.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// TestSlowQueryLogOnSearch wires a zero threshold so every search counts as
// slow, and asserts exactly one structured record carrying the trace ID.
func TestSlowQueryLogOnSearch(t *testing.T) {
	s, g := testServer(t)
	var mu sync.Mutex
	var buf bytes.Buffer
	s.Tracer().SetLogger(obs.NewLogger(syncWriter{&mu, &buf}, 0, "json"))
	s.Tracer().SetSlowQuery(0, "search")
	first, sur := someName(g)

	req := httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil)
	req.Header.Set("X-Request-ID", "slow-req-1")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("search status %d", w.Code)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || lines[0] == "" {
		t.Fatalf("got %d slow-query records, want exactly 1:\n%s", len(lines), out)
	}
	var rec struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Spans   []any  `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-query record is not JSON: %v", err)
	}
	if rec.Msg != "slow query" {
		t.Errorf("msg %q, want \"slow query\"", rec.Msg)
	}
	if rec.TraceID != "slow-req-1" {
		t.Errorf("slow-query trace_id %q, want the request's", rec.TraceID)
	}
	if len(rec.Spans) < 5 {
		t.Errorf("slow-query record carries %d spans, want the full tree", len(rec.Spans))
	}

	// A non-search request must not trip the slow-query check.
	mu.Lock()
	buf.Reset()
	mu.Unlock()
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	mu.Lock()
	leaked := buf.Len()
	mu.Unlock()
	if leaked != 0 {
		t.Errorf("non-search request produced a slow-query record")
	}
}

type syncWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestTraceDebugConcurrent scrapes /api/debug/traces while searches and
// ingest flushes run concurrently; meaningful under -race.
func TestTraceDebugConcurrent(t *testing.T) {
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1
	cfg.MaxAge = 10 * time.Millisecond
	srv, _ := ingestFamily(t, cfg)
	srv.EnableTraceDebug()
	srv.Tracer().SetSlowQuery(0, "search")
	var mu sync.Mutex
	var buf bytes.Buffer
	srv.Tracer().SetLogger(obs.NewLogger(syncWriter{&mu, &buf}, 0, "json"))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get("/api/search?first_name=torquil&surname=macsween")
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get("/api/debug/traces")
				get("/metrics")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, err := http.Post(ts.URL+"/api/ingest?sync=1", "application/json",
				strings.NewReader(torquilDeathJSON))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The ring must hold well-formed traces after the storm.
	resp, err := http.Get(ts.URL + "/api/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatalf("bad traces JSON after concurrency: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("no traces recorded during the storm")
	}
	for _, tr := range traces {
		if tr.TraceID == "" || len(tr.Spans) == 0 {
			t.Fatalf("malformed trace in ring: %+v", tr)
		}
	}
}

// A caller's request ID keeps one spelling: one cut at 64 bytes falls on a
// rune boundary, so the echoed header, the body's trace_id and the stored
// trace agree, and an ID that is not UTF-8 is replaced by a minted one.
func TestRequestIDOneSpelling(t *testing.T) {
	s, g := testServer(t)
	first, sur := someName(g)
	search := func(id string) (hdr, body string) {
		t.Helper()
		req := httptest.NewRequest("GET", "/api/search?first_name="+first+"&surname="+sur, nil)
		req.Header.Set("X-Request-ID", id)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		var resp SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return w.Header().Get("X-Request-ID"), resp.TraceID
	}

	hdr, body := search(strings.Repeat("a", 63) + "é")
	if hdr != body || hdr != strings.Repeat("a", 63) {
		t.Errorf("header ID %q, body ID %q, want both 63 a's", hdr, body)
	}
	if s.Tracer().Trace(body) == nil {
		t.Errorf("no trace under the body's ID %q", body)
	}

	hdr, body = search("\xff")
	if hdr != body || len(body) != 16 || strings.Trim(body, "0123456789abcdef") != "" {
		t.Errorf("non-UTF-8 ID: header %q, body %q, want one minted 16-hex ID", hdr, body)
	}
}
