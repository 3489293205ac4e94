package obs

import (
	"fmt"
	"strings"
	"sync"
)

// This file holds the labeled metric families ("vecs") of the telemetry
// layer: a HistogramVec or CounterVec owns one metric family plus a fixed,
// ordered set of label NAMES, and hands out the per-label-VALUE series
// lazily. Two properties make them safe on serving hot paths:
//
//   - the fast path is one RLock + one map hit, no label-string rendering;
//   - cardinality is bounded twice over — label names are fixed at
//     construction (callers pass only values drawn from bounded sets: mux
//     route patterns, status classes, shard ids), and the series count is
//     hard-capped. Past the cap, observations land in a shared unexported
//     overflow sink and snaps_obs_dropped_labels_total counts the refusal,
//     so a label-cardinality bug degrades into one counter instead of an
//     unbounded registry.

// seriesCap is the per-vec series cap. Routes (~15) × status classes (4)
// and shard counts (< 100) sit far below it; anything approaching it is a
// cardinality leak, not a workload.
const seriesCap = 256

// mDroppedLabels counts label sets refused by a vec's series cap.
var mDroppedLabels = Default.Counter("snaps_obs_dropped_labels_total",
	"Label sets refused by a metric vec's series cap; their observations land in an unexported overflow sink.")

// vec is the shared machinery of HistogramVec and CounterVec.
type vec struct {
	reg    *Registry
	family string
	help   string
	names  []string
	max    int

	mu     sync.RWMutex
	series map[string]any
}

// key joins label values with a separator that Label would escape, so two
// distinct value tuples can never collide.
func vecKey(values []string) string { return strings.Join(values, "\x1f") }

func (v *vec) renderLabels(values []string) string {
	if len(values) != len(v.names) {
		panic(fmt.Sprintf("obs: vec %s wants %d label values, got %d",
			v.family, len(v.names), len(values)))
	}
	parts := make([]string, len(values))
	for i, val := range values {
		parts[i] = Label(v.names[i], val)
	}
	return strings.Join(parts, ",")
}

// lookup returns the series for the label values, creating it with mk
// (which registers it) unless the cap is hit, in which case it returns nil
// after counting the drop.
func (v *vec) lookup(values []string, mk func(labels string) any) any {
	k := vecKey(values)
	v.mu.RLock()
	s, ok := v.series[k]
	v.mu.RUnlock()
	if ok {
		return s
	}
	labels := v.renderLabels(values) // panics on arity mismatch before taking the lock
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok = v.series[k]; ok {
		return s
	}
	if len(v.series) >= v.max {
		mDroppedLabels.Inc()
		return nil
	}
	s = mk(labels)
	v.series[k] = s
	return s
}

// HistogramVec is a family of histograms keyed by a bounded label set.
type HistogramVec struct {
	vec
	buckets  []float64
	overflow *Histogram // shared sink for capped label sets; not registered
}

// HistogramVec returns the labeled histogram family registered under
// family, creating it on first use. labelNames fixes the label schema;
// With hands out the per-value series, at most seriesCap of them.
func (r *Registry) HistogramVec(family, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic("obs: HistogramVec needs at least one label name")
	}
	if !validFamily(family) {
		panic(fmt.Sprintf("obs: invalid metric family name %q", family))
	}
	return &HistogramVec{
		vec: vec{reg: r, family: family, help: help,
			names: append([]string(nil), labelNames...),
			max:   seriesCap, series: map[string]any{}},
		buckets:  buckets,
		overflow: NewHistogram(buckets),
	}
}

// With returns the histogram for the label values (in labelNames order),
// creating and registering it on first use. Past the series cap it returns
// the shared overflow sink — observations still aggregate locally but the
// series never reaches the exposition — and counts the drop.
func (v *HistogramVec) With(values ...string) *Histogram {
	s := v.lookup(values, func(labels string) any {
		return v.reg.Histogram(v.family+"{"+labels+"}", v.help, v.buckets)
	})
	if s == nil {
		return v.overflow
	}
	return s.(*Histogram)
}

// CounterVec is a family of counters keyed by a bounded label set.
type CounterVec struct {
	vec
	overflow *Counter
}

// CounterVec returns the labeled counter family registered under family,
// creating it on first use; same schema and cap rules as HistogramVec.
func (r *Registry) CounterVec(family, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic("obs: CounterVec needs at least one label name")
	}
	if !validFamily(family) {
		panic(fmt.Sprintf("obs: invalid metric family name %q", family))
	}
	return &CounterVec{
		vec: vec{reg: r, family: family, help: help,
			names: append([]string(nil), labelNames...),
			max:   seriesCap, series: map[string]any{}},
		overflow: &Counter{},
	}
}

// With returns the counter for the label values, creating and registering
// it on first use; past the cap it returns the shared overflow sink and
// counts the drop.
func (v *CounterVec) With(values ...string) *Counter {
	s := v.lookup(values, func(labels string) any {
		return v.reg.Counter(v.family+"{"+labels+"}", v.help)
	})
	if s == nil {
		return v.overflow
	}
	return s.(*Counter)
}
