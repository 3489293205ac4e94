package server

import (
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/obs"
)

// statusWriter captures the status code a handler writes, so the request
// counter can be labelled with its status class.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClasses are the status-class label values, by statusClassIndex.
var statusClasses = [numStatusClasses]string{"2xx", "3xx", "4xx", "5xx"}

const numStatusClasses = 4

// statusClassIndex buckets a status code into 2xx/3xx/4xx/5xx (anything
// below 300 counting as 2xx, anything from 500 as 5xx), as an index into
// statusClasses.
func statusClassIndex(code int) int { return min(max(code/100-2, 0), numStatusClasses-1) }

// statusClass buckets a status code into 2xx/3xx/4xx/5xx.
func statusClass(code int) string { return statusClasses[statusClassIndex(code)] }

// route is what ServeHTTP needs of one mux pattern, bound once: its
// admission class and the name of its root span for the common method when
// the pattern is registered, and its request series per status class at
// the route's first response in that class, so a series that never counted
// a response stays out of the exposition. A request renders no label and,
// past its class's first, takes no registry lock.
type route struct {
	class   admission.Class
	pattern string // the label: "unmatched" for the route of no pattern, "/" for "/{$}"
	getSpan string // the root span name of a GET
	series  [numStatusClasses]atomic.Pointer[routeSeries]
}

// routeSeries is one route's request counter and latency histogram for
// one status class.
type routeSeries struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// newRoute binds the route of a mux pattern ("" for unmatched requests).
// The home page's pattern "/{$}" matches "/" alone and is labelled so.
func newRoute(pattern string) *route {
	rt := &route{class: classifyRoute(pattern), pattern: strings.TrimSuffix(pattern, "{$}")}
	if rt.pattern == "" {
		rt.pattern = "unmatched"
	}
	rt.getSpan = http.MethodGet + " " + rt.pattern
	return rt
}

// spanName names the root span of a request with the method.
func (rt *route) spanName(method string) string {
	if method == http.MethodGet {
		return rt.getSpan
	}
	return method + " " + rt.pattern
}

// observe records one served request. traceID, when non-empty (the request
// was traced), becomes the latency bucket's exemplar so a tail bucket on
// /metrics links to its span tree in /api/debug/traces.
func (rt *route) observe(status int, d time.Duration, traceID string) {
	c := statusClassIndex(status)
	s := rt.series[c].Load()
	if s == nil {
		// One series per route pattern × status class: the patterns are the
		// mux registrations, never client input. Racing first responses
		// bind the same series, as the registry creates a name once.
		labels := "{" + obs.Label("route", rt.pattern) + "," + obs.Label("code", statusClasses[c]) + "}"
		s = &routeSeries{
			obs.Default.Counter("snaps_http_requests_total"+labels,
				"Total HTTP requests served, by route pattern and status class."),
			obs.Default.Histogram("snaps_http_request_seconds"+labels,
				"HTTP request latency by route pattern and status class.", obs.LatencyBuckets),
		}
		rt.series[c].Store(s)
	}
	s.requests.Inc()
	s.latency.ObserveDurationExemplar(d, traceID)
}

// handleMetrics serves the text exposition of every metric in the default
// registry: request counts and latencies, ingest pipeline counters,
// query-engine and index statistics, and the offline stage timing
// histograms. Scrapers that Accept application/openmetrics-text get the
// OpenMetrics rendering, which additionally carries the trace-ID exemplars
// on histogram buckets; everyone else gets classic text 0.0.4, whose
// grammar has no exemplar clause.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Refresh the Go runtime gauges (goroutines, heap, GC pause total,
	// build info) so every scrape reports current values.
	obs.SampleRuntime(obs.Default)
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		obs.Default.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WriteText(w)
}

// EnableTraceDebug mounts GET /api/debug/traces, serving the tracer's ring
// buffer of completed traces (most recent first) as JSON. Off by default —
// cmd/snaps gates it behind -trace-debug, the same posture as -pprof —
// since span attributes expose query internals.
func (s *Server) EnableTraceDebug() {
	s.handle("/api/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, s.tracer.Traces())
	})
}

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default — cmd/snaps gates it behind -pprof — since
// profile endpoints expose internals and can be made to burn CPU.
func (s *Server) EnablePprof() {
	s.handle("/debug/pprof/", pprof.Index)
	s.handle("/debug/pprof/cmdline", pprof.Cmdline)
	s.handle("/debug/pprof/profile", pprof.Profile)
	s.handle("/debug/pprof/symbol", pprof.Symbol)
	s.handle("/debug/pprof/trace", pprof.Trace)
}
