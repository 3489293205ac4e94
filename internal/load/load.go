// Package load is the deterministic open-loop load harness for the SNAPS
// serving tier. It replays configurable traffic mixes — hot-name searches,
// long-tail searches, pedigree extractions, ingest bursts — against a live
// HTTP server or an in-process handler, at a fixed arrival rate that does
// NOT slow down when the server does. Open-loop generation is the honest
// way to measure an overloaded server: a closed loop (fire, wait, fire)
// self-throttles exactly when the interesting behaviour starts, hiding both
// the latency tail and the shedding the admission controller exists to
// perform. Latencies land in per-route log-bucketed histograms (an
// obs.Histogram at 5% resolution from 1µs to 66s, plus the exact maximum);
// cmd/snapsload prints and writes the reports.
//
// Every arrival gets its own goroutine, up to MaxOutstanding. The repo
// benchmark's driver (bench/load.go) shares its schedule among a fixed
// handful of senders instead, and the two are deliberately not one design:
// these mixes exist to push past the admission budget and show the shed
// ladder, which a fixed sender count can never do (in-flight requests are
// capped at the sender count, below the budget), while the benchmark's loop
// exists never to be shed, so that every run measures the same work.
package load

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snaps/snaps/internal/obs"
)

// Target answers one operation and reports the HTTP status code.
type Target interface {
	Do(op Op) (status int, err error)
}

// HTTPTarget replays against a live server over the network.
type HTTPTarget struct {
	Base   string // e.g. "http://localhost:8080"
	Client *http.Client
}

func (t *HTTPTarget) Do(op Op) (int, error) {
	c := t.Client
	if c == nil {
		c = http.DefaultClient
	}
	var resp *http.Response
	var err error
	switch op.Kind {
	case OpIngest:
		resp, err = c.Post(t.Base+"/api/ingest", "application/json",
			strings.NewReader(string(op.Body)))
	default:
		resp, err = c.Get(t.Base + opPath(op))
	}
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// HandlerTarget replays against an http.Handler in-process — no sockets, no
// kernel, so the measured latency is the server's own work plus admission.
// This is cmd/snapsload's default target: it removes network noise from
// the measurement and runs anywhere (CI included).
type HandlerTarget struct {
	Handler http.Handler
}

func (t *HandlerTarget) Do(op Op) (int, error) {
	var req *http.Request
	if op.Kind == OpIngest {
		req = httptest.NewRequest("POST", "/api/ingest", strings.NewReader(string(op.Body)))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest("GET", opPath(op), nil)
	}
	w := httptest.NewRecorder()
	t.Handler.ServeHTTP(w, req)
	return w.Code, nil
}

// opPath renders the GET path for a search or pedigree op.
func opPath(op Op) string {
	switch op.Kind {
	case OpPedigree:
		return "/api/pedigree?id=" + strconv.Itoa(op.Entity)
	default:
		return "/api/search?first_name=" + url.QueryEscape(op.First) +
			"&surname=" + url.QueryEscape(op.Surname)
	}
}

// Config tunes one Run.
type Config struct {
	// Rate is the arrival rate in requests/second.
	Rate float64
	// Duration is how long to generate arrivals for; the run then drains
	// outstanding requests before reporting.
	Duration time.Duration
	// MaxOutstanding caps concurrent in-flight requests from the
	// generator side; arrivals past the cap are counted as Dropped rather
	// than launched, bounding generator memory when the server stalls
	// entirely. 0 means 4096.
	MaxOutstanding int
	// Seed makes the op sequence reproducible.
	Seed int64
}

// latencyBuckets is the histogram layout of every route: log-spaced by 5%
// from 1µs to 66s, so a quantile's relative error is bounded by the growth
// factor at every magnitude — the property that matters for tail quantiles,
// where linear buckets either blur the tail or explode in count.
var latencyBuckets = obs.LogBuckets(1e-6, 1.05, 370)

// RouteStats accumulates one route's outcomes during a run.
type RouteStats struct {
	Count  int64
	OK     int64 // 2xx
	Shed   int64 // 429 — admission rejections
	Errors int64 // transport errors and non-2xx/429 statuses
	// Hist holds the latencies in seconds.
	Hist *obs.Histogram
	// maxNs is the exact maximum; the histogram only knows its bucket.
	maxNs atomic.Int64
}

func newRouteStats() *RouteStats {
	return &RouteStats{Hist: obs.NewHistogram(latencyBuckets)}
}

// record classifies one completed request into the stats. Safe for
// concurrent use (counters are atomic, the histogram is lock-free).
func (st *RouteStats) record(status int, err error, lat time.Duration) {
	st.Hist.ObserveDuration(lat)
	for {
		cur := st.maxNs.Load()
		if int64(lat) <= cur || st.maxNs.CompareAndSwap(cur, int64(lat)) {
			break
		}
	}
	atomicAdd(&st.Count)
	switch {
	case err != nil:
		atomicAdd(&st.Errors)
	case status == http.StatusTooManyRequests:
		atomicAdd(&st.Shed)
	case status >= 200 && status < 300:
		atomicAdd(&st.OK)
	default:
		atomicAdd(&st.Errors)
	}
}

// report summarises the stats into the JSON-ready shape. Quantiles are
// clamped to the exact maximum: interpolating inside the top bucket can
// otherwise place them above every observed latency.
func (st *RouteStats) report() RouteReport {
	maxMs := float64(st.maxNs.Load()) / 1e6
	q := func(p float64) float64 { return min(1e3*st.Hist.Quantile(p), maxMs) }
	rep := RouteReport{
		Count: st.Count, OK: st.OK, Shed: st.Shed, Errors: st.Errors,
		P50Ms: q(0.50), P95Ms: q(0.95), P99Ms: q(0.99), MaxMs: maxMs,
	}
	if n := st.Hist.Count(); n > 0 {
		rep.MeanMs = 1e3 * st.Hist.Sum() / float64(n)
	}
	return rep
}

// RouteReport is the JSON-ready summary of one route in one mix.
type RouteReport struct {
	Count  int64   `json:"count"`
	OK     int64   `json:"ok"`
	Shed   int64   `json:"shed"`
	Errors int64   `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// MixReport is the result of one Run.
type MixReport struct {
	Mix          Mix                    `json:"mix"`
	OfferedRate  float64                `json:"offered_rate_rps"`
	AchievedRate float64                `json:"achieved_rate_rps"`
	DurationSec  float64                `json:"duration_sec"`
	Requests     int64                  `json:"requests"`
	Dropped      int64                  `json:"dropped"`
	Routes       map[string]RouteReport `json:"routes"`
}

// Run replays one mix against the target on the open-loop schedule of
// pace: request i is due at start + i/rate.
func Run(target Target, w *Workload, m Mix, cfg Config) (*MixReport, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("load: rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: duration must be positive")
	}
	n := int(cfg.Rate * cfg.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	ops := w.Ops(m, n, cfg.Rate, cfg.Seed)

	stats := map[string]*RouteStats{}
	for k := OpSearchHot; k <= OpIngest; k++ {
		stats[k.Route()] = newRouteStats()
	}
	start := time.Now()
	dropped := pace(target, ops, cfg.MaxOutstanding, stats)
	elapsed := time.Since(start)

	rep := &MixReport{
		Mix:         m,
		OfferedRate: cfg.Rate,
		DurationSec: elapsed.Seconds(),
		Dropped:     dropped,
		Routes:      map[string]RouteReport{},
	}
	for route, st := range stats {
		if st.Count == 0 {
			continue
		}
		rep.Requests += st.Count
		rep.Routes[route] = st.report()
	}
	if elapsed > 0 {
		rep.AchievedRate = float64(rep.Requests) / elapsed.Seconds()
	}
	return rep, nil
}

// pace issues the ops on their open-loop schedule and waits for the last
// response: op i is due at start + DueUs[i]-DueUs[0], independent of how
// many earlier requests have completed — lateness in the server widens the
// outstanding window instead of stretching the schedule. At most maxOut
// (0 means 4096) requests are in flight; an arrival past that is counted as
// dropped, not launched: the server is then so far behind that more requests
// would measure the generator, and generator memory stays bounded when the
// server stalls entirely.
func pace(target Target, ops []Op, maxOut int, stats map[string]*RouteStats) (dropped int64) {
	if maxOut <= 0 {
		maxOut = 4096
	}
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(ops[i].DueUs-ops[0].DueUs) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		wg.Add(1)
		go func(op *Op) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			status, err := target.Do(*op)
			stats[op.Kind.Route()].record(status, err, time.Since(t0))
		}(&ops[i])
	}
	wg.Wait()
	return dropped
}

// RouteNames returns the routes of a report in stable order for printing.
func (r *MixReport) RouteNames() []string {
	names := make([]string, 0, len(r.Routes))
	for name := range r.Routes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// atomicAdd increments a RouteStats field shared across request goroutines.
func atomicAdd(p *int64) { atomic.AddInt64(p, 1) }
