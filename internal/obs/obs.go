// Package obs is the dependency-free observability layer of SNAPS: atomic
// counters, gauges, and fixed-bucket latency histograms collected in a
// named registry with Prometheus-style text exposition, plus the Stage
// timer API the offline pipeline and the experiment harness share so the
// paper's per-stage runtime tables (Sec. 10, Tables 5-6) and the live
// /metrics endpoint report from one timing source.
//
// On top of the aggregate metrics sit the request-scoped primitives: a
// context-propagated span tracer with a ring buffer of completed traces
// (trace.go) and a log/slog-based structured logger whose records carry
// the trace ID of the context they were emitted under (obslog.go), so one
// slow query can be decomposed span by span after the fact.
//
// Metrics are cheap enough for hot paths — an observation is one or two
// atomic adds — and the package deliberately has no third-party
// dependencies and no HTTP surface of its own; internal/server mounts the
// exposition.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
	// read, when set, is where the count lives (Registry.CounterFunc); Inc
	// and Add do not reach it.
	read func() int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c.read != nil {
		return c.read()
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depths, sizes).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64, for values that are not whole
// numbers (accumulated GC pause seconds).
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds, spanning the
// sub-millisecond query path up to multi-second offline stages.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// LogBuckets returns n log-spaced upper bounds min, min*growth,
// min*growth^2, ... — an HDR-style layout: relative error is bounded by the
// growth factor at every magnitude, instead of the lowest linear bucket
// swallowing the whole sub-millisecond range.
func LogBuckets(min, growth float64, n int) []float64 {
	if min <= 0 || growth <= 1 || n < 1 {
		panic("obs: LogBuckets wants min > 0, growth > 1, n >= 1")
	}
	out := make([]float64, n)
	b := min
	for i := range out {
		out[i] = b
		b *= growth
	}
	return out
}

// LatencyBuckets are the serving-tier latency buckets: log-spaced by
// factor 2 from 1µs to ~67s, so the 11µs hot-path search and a 2s
// overloaded scatter resolve with the same ~41% worst-case relative error
// instead of both collapsing into coarse linear edges. Histograms built
// over them interpolate quantiles geometrically (see Quantile).
var LatencyBuckets = LogBuckets(1e-6, 2, 27)

// CountBuckets are buckets for size-like observations (candidate counts,
// batch sizes) rather than durations. They run to 100k because a tail
// search at DS-4k already puts over 4,000 entities in one engine's
// accumulator, and the tiers past it put more.
var CountBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 10000, 25000, 50000, 100000}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts. The
// bounds are inclusive upper bounds in ascending order; observations above
// the last bound land in an implicit +Inf bucket. Each bucket additionally
// keeps one optional exemplar — the trace ID and exact value of the latest
// sampled observation that landed in it — so a tail-bucket count on
// /metrics links directly to a span tree in /api/debug/traces.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	// growth is the constant ratio between consecutive bounds when the
	// layout is log-spaced (LogBuckets), 0 for linear layouts; Quantile
	// interpolates geometrically when it is set.
	growth    float64
	exemplars []atomic.Pointer[Exemplar] // aligned with buckets
}

// Exemplar is one sampled observation attached to a histogram bucket, in
// the OpenMetrics sense: the exact value, the trace it belongs to, and
// when it was recorded.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

// NewHistogram returns a histogram outside any registry (Registry.Histogram
// is the registered kind). It copies and sorts the bounds so callers can
// share bucket slices safely, and detects a log-spaced layout (constant bound ratio) so
// quantile interpolation can match it.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		bounds:    bs,
		buckets:   make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
	if len(bs) >= 3 && bs[0] > 0 {
		g := bs[1] / bs[0]
		logSpaced := true
		for i := 2; i < len(bs); i++ {
			if r := bs[i] / bs[i-1]; math.Abs(r-g) > 1e-9*g {
				logSpaced = false
				break
			}
		}
		if logSpaced {
			h.growth = g
		}
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le is inclusive)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty (the
// request was sampled into a trace), attaches it as the bucket's exemplar.
// Latest-wins per bucket: a p99 spike keeps overwriting the tail bucket's
// exemplar with fresher slow traces while fast traffic stays in the low
// buckets, so the exemplar a scrape sees for the tail IS a slow trace.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
}

// BucketExemplar returns bucket i's exemplar (i == len(bounds) is +Inf),
// nil when none was recorded.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationExemplar records a duration in seconds with a trace-ID
// exemplar (no-op exemplar when traceID is empty).
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by interpolation within
// the bucket containing the target rank. Linear layouts (DefBuckets)
// interpolate linearly — the same estimate Prometheus's
// histogram_quantile produces. Log-spaced layouts (LogBuckets,
// LatencyBuckets) interpolate geometrically, lo*(hi/lo)^frac, the estimate
// with bounded relative error under logarithmic bucketing. Observations in the +Inf bucket clamp to the
// largest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			hi := h.bounds[i]
			if h.growth > 0 {
				// Log layout: bucket 0 spans (bounds[0]/growth, bounds[0]]
				// just as every later bucket spans one growth factor.
				lo := hi / h.growth
				if i > 0 {
					lo = h.bounds[i-1]
				}
				return lo * math.Pow(hi/lo, frac)
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns the cumulative bucket counts aligned with bounds plus
// the +Inf total, for exposition.
func (h *Histogram) snapshot() (cum []int64, total int64) {
	cum = make([]int64, len(h.bounds))
	running := int64(0)
	for i := range h.bounds {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, running + h.buckets[len(h.bounds)].Load()
}
