package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// kind discriminates the metric types a registry can hold.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	floatGaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, floatGaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "kind?"
}

// entry is one registered time series: a metric family name, an optional
// label set, and the metric itself.
type entry struct {
	family string
	labels string // rendered label pairs without braces, "" when unlabelled
	help   string
	kind   kind

	counter    *Counter
	gauge      *Gauge
	floatGauge *FloatGauge
	histogram  *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Series names may carry a label set in the name itself,
// e.g. `snaps_http_requests_total{route="/api/search",code="2xx"}`; series
// of the same family share one HELP/TYPE header in the exposition.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// Default is the process-wide registry every SNAPS component registers
// into; internal/server exposes it at GET /metrics.
var Default = NewRegistry()

// splitName separates a series name into family and label set. The family
// must look like a Prometheus metric name; the label part, when present,
// is kept verbatim (callers construct it with Label).
func splitName(name string) (family, labels string) {
	family = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			panic(fmt.Sprintf("obs: malformed series name %q", name))
		}
		family, labels = name[:i], name[i+1:len(name)-1]
	}
	if !validFamily(family) {
		panic(fmt.Sprintf("obs: invalid metric family name %q", family))
	}
	return family, labels
}

func validFamily(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// labelEscaper escapes a label value: backslashes, quotes and newlines. A
// Replacer is safe for concurrent use, so every caller shares this one.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one label pair for inclusion in a series name, escaping
// backslashes, quotes, and newlines in the value.
func Label(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// lookup returns the entry for name, creating it with mk when absent, and
// panics when the existing entry has a different kind — mixing kinds under
// one name is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, k kind, mk func(*entry)) *entry {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.entries[name]; e == nil {
			family, labels := splitName(name)
			e = &entry{family: family, labels: labels, help: help, kind: k}
			mk(e)
			r.entries[name] = e
		}
		r.mu.Unlock()
	}
	if e.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, e.kind, k))
	}
	return e
}

// Counter returns the counter registered under name, creating it on first
// use. help is retained from the first registration.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, counterKind, func(e *entry) { e.counter = &Counter{} }).counter
}

// CounterFunc registers a counter whose owner keeps the count elsewhere —
// striped over the structure it counts, say, so that counting shares no
// cache line — and reports it through read, which must be monotonic and
// safe to call from any goroutine. Everything that reads the counter
// (Value, the exposition) sees read's result. It panics if the name is
// already registered: there would be two sources for one series.
func (r *Registry) CounterFunc(name, help string, read func() int64) {
	created := false
	r.lookup(name, help, counterKind, func(e *entry) {
		e.counter = &Counter{read: read}
		created = true
	})
	if !created {
		panic(fmt.Sprintf("obs: CounterFunc %q: name already registered", name))
	}
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, gaugeKind, func(e *entry) { e.gauge = &Gauge{} }).gauge
}

// FloatGauge returns the float-valued gauge registered under name,
// creating it on first use.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.lookup(name, help, floatGaugeKind, func(e *entry) { e.floatGauge = &FloatGauge{} }).floatGauge
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (seconds for latencies) on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, histogramKind, func(e *entry) { e.histogram = NewHistogram(buckets) }).histogram
}

// WriteText renders every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by family then label set, with
// one HELP/TYPE header per family. Exemplars are omitted — they are not
// part of the 0.0.4 grammar; scrape with WriteOpenMetrics to see them.
func (r *Registry) WriteText(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics 1.0 text
// format: counter families drop their `_total` suffix in HELP/TYPE (the
// samples keep it), histogram buckets carry their trace-ID exemplars
// (`# {trace_id="..."} value timestamp`), and the output ends with the
// mandatory `# EOF` terminator. Serve it under content type
// `application/openmetrics-text; version=1.0.0`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

// openMetricsFamily is the metric-family name OpenMetrics wants in
// HELP/TYPE lines: counters are named without the `_total` sample suffix.
func openMetricsFamily(e *entry) string {
	if e.kind == counterKind {
		return strings.TrimSuffix(e.family, "_total")
	}
	return e.family
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].family != entries[j].family {
			return entries[i].family < entries[j].family
		}
		return entries[i].labels < entries[j].labels
	})

	bw := bufio.NewWriter(w)
	prevFamily := ""
	for _, e := range entries {
		if e.family != prevFamily {
			fam := e.family
			if openMetrics {
				fam = openMetricsFamily(e)
			}
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", fam, e.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, e.kind)
			prevFamily = e.family
		}
		switch e.kind {
		case counterKind:
			fmt.Fprintf(bw, "%s %d\n", series(e.family, e.labels), e.counter.Value())
		case gaugeKind:
			fmt.Fprintf(bw, "%s %d\n", series(e.family, e.labels), e.gauge.Value())
		case floatGaugeKind:
			fmt.Fprintf(bw, "%s %s\n", series(e.family, e.labels), formatFloat(e.floatGauge.Value()))
		case histogramKind:
			h := e.histogram
			cum, total := h.snapshot()
			for i, bound := range h.bounds {
				le := Label("le", formatFloat(bound))
				fmt.Fprintf(bw, "%s %d", series(e.family+"_bucket", join(e.labels, le)), cum[i])
				if openMetrics {
					writeExemplar(bw, h.BucketExemplar(i))
				}
				bw.WriteByte('\n')
			}
			fmt.Fprintf(bw, "%s %d", series(e.family+"_bucket", join(e.labels, `le="+Inf"`)), total)
			if openMetrics {
				writeExemplar(bw, h.BucketExemplar(len(h.bounds)))
			}
			bw.WriteByte('\n')
			fmt.Fprintf(bw, "%s %s\n", series(e.family+"_sum", e.labels), formatFloat(h.Sum()))
			fmt.Fprintf(bw, "%s %d\n", series(e.family+"_count", e.labels), total)
		}
	}
	if openMetrics {
		fmt.Fprint(bw, "# EOF\n")
	}
	return bw.Flush()
}

// writeExemplar appends one OpenMetrics exemplar clause to the current
// bucket line: ` # {trace_id="..."} value timestamp`. No-op for nil.
func writeExemplar(bw *bufio.Writer, ex *Exemplar) {
	if ex == nil {
		return
	}
	fmt.Fprintf(bw, " # {%s} %s %s",
		Label("trace_id", ex.TraceID),
		formatFloat(ex.Value),
		strconv.FormatFloat(float64(ex.Time.UnixNano())/1e9, 'f', 3, 64))
}

func series(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

func join(labels, more string) string {
	if labels == "" {
		return more
	}
	return labels + "," + more
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
