package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"slices"
	"sync"
	"time"
	"unicode/utf8"
)

// This file is the request-scoped half of the observability layer: a
// dependency-free span tracer. A Tracer mints one trace per root operation
// (an HTTP request, an ingest flush), spans nest through context.Context,
// and completed traces land in a fixed-size ring buffer the server exposes
// at GET /api/debug/traces. Traces named by the slow-query configuration
// additionally emit one structured log record with their full span tree,
// so a slow search is explainable after the fact without a profiler
// attached.
//
// Everything is nil-safe: StartSpan on a context without a trace returns a
// nil *Span whose methods are no-ops, so hot paths carry zero branches for
// the untraced case beyond one pointer test inside each method.

// Attr is one key/value annotation on a span. Values are restricted to
// what the JSON debug endpoint renders losslessly.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"` // string, int64, or float64
}

// Span is a handle on one span of an in-flight trace. A span is created by
// StartSpan (or Tracer.StartRoot), annotated with SetAttr, and completed
// exactly once with End; ending the root span finalises the whole trace.
//
// A span is annotated and ended by the goroutine that started it; sibling
// spans may be started from several goroutines at once, as the scatter's
// workers each start, annotate and end their own shard_search span and
// the engine spans under it.
type Span struct {
	tr    *activeTrace
	i     int // index into tr.snap.Spans; the span's ID is i+1
	start time.Time
}

// activeTrace is one in-flight trace. It is its own snapshot: StartSpan
// appends to snap.Spans under mu, so the spans lie in creation order,
// which is start order with IDs ascending; SetAttr and End write their
// entry in place, and ending the root hands snap itself to the ring.
type activeTrace struct {
	tracer *Tracer

	mu       sync.Mutex
	finished bool // the root has ended: later spans and writes are dropped
	snap     TraceSnapshot
}

// spanKey carries the current span through a context.
type spanKey struct{}

// spanFromContext returns the innermost span of the context, nil when the
// context carries no trace.
func spanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceIDFromContext returns the trace ID the context belongs to, "" when
// untraced. Handlers use it to echo X-Request-ID and to stamp responses.
func TraceIDFromContext(ctx context.Context) string {
	if s := spanFromContext(ctx); s != nil {
		return s.tr.snap.TraceID
	}
	return ""
}

// StartSpan begins a child span of the context's current span. When the
// context carries no trace, or its trace has finished, it returns the
// context unchanged and a nil span whose methods are no-ops, so callers
// never branch on tracing being enabled.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := spanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.open(name, uint64(parent.i+1))
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// open appends a span to the trace and returns its handle, nil once the
// trace has finished. The ID and the start are taken under one lock, so
// creation order is start order.
func (t *activeTrace) open(name string, parent uint64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return nil
	}
	s := &Span{tr: t, i: len(t.snap.Spans), start: time.Now()}
	if s.i == 0 {
		t.snap.Start = s.start // the trace starts with its root
	}
	t.snap.Spans = append(t.snap.Spans, SpanSnapshot{
		ID:          uint64(s.i + 1),
		Parent:      parent,
		Name:        name,
		StartUs:     s.start.Sub(t.snap.Start).Microseconds(),
		durationRaw: -1, // open
	})
	return s
}

// SetAttr annotates the span with an integer attribute (candidate counts,
// batch sizes, memo hits). No-op on a nil span.
func (s *Span) SetAttr(key string, v int64) {
	if s != nil {
		s.annotate(Attr{Key: key, Value: v})
	}
}

// SetAttrStr annotates the span with a string attribute. No-op on a nil
// span.
func (s *Span) SetAttrStr(key, v string) {
	if s != nil {
		s.annotate(Attr{Key: key, Value: v})
	}
}

// annotate appends a to the span's entry; no-op once the trace has
// finished.
func (s *Span) annotate(a Attr) {
	t := s.tr
	t.mu.Lock()
	if !t.finished {
		sp := &t.snap.Spans[s.i]
		sp.Attrs = append(sp.Attrs, a)
	}
	t.mu.Unlock()
}

// End completes the span, writing its duration into the trace. Ending the
// root span finalises the trace: the spans still open are dropped, the
// snapshot enters the tracer's ring buffer and, when the slow-query check
// fires, one structured log record is emitted. End is idempotent and
// nil-safe, and a no-op once the trace has finished.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	t := s.tr
	t.mu.Lock()
	if t.finished || t.snap.Spans[s.i].durationRaw >= 0 {
		t.mu.Unlock()
		return
	}
	sp := &t.snap.Spans[s.i]
	sp.DurationUs, sp.durationRaw = dur.Microseconds(), dur
	t.finished = s.i == 0
	if t.finished {
		t.snap.DurationUs = sp.DurationUs
		t.snap.Spans = slices.DeleteFunc(t.snap.Spans, func(sp SpanSnapshot) bool { return sp.durationRaw < 0 })
	}
	t.mu.Unlock()
	if s.i == 0 {
		t.tracer.finish(&t.snap)
	}
}

// SpanSnapshot is one completed span in a finished trace, in the JSON
// shape GET /api/debug/traces serves. Offsets and durations are in
// microseconds: fine enough for sub-millisecond query stages, stable to
// diff in tests.
type SpanSnapshot struct {
	ID          uint64        `json:"id"`
	Parent      uint64        `json:"parent,omitempty"` // 0 = root (no parent)
	Name        string        `json:"name"`
	StartUs     int64         `json:"start_us"` // offset from trace start
	DurationUs  int64         `json:"duration_us"`
	Attrs       []Attr        `json:"attrs,omitempty"`
	durationRaw time.Duration // < 0 while the span is open
}

// TraceSnapshot is one finished trace: the root operation plus every
// completed span, in creation order (start order, parents before
// children).
type TraceSnapshot struct {
	TraceID    string         `json:"trace_id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationUs int64          `json:"duration_us"`
	Spans      []SpanSnapshot `json:"spans"`
}

// SpansNamed returns the snapshot's spans with the given name.
func (t *TraceSnapshot) SpansNamed(name string) []SpanSnapshot {
	var out []SpanSnapshot
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Children returns the spans whose parent is the given span ID.
func (t *TraceSnapshot) Children(id uint64) []SpanSnapshot {
	var out []SpanSnapshot
	for _, s := range t.Spans {
		if s.Parent == id && s.ID != id {
			out = append(out, s)
		}
	}
	return out
}

// Tracer mints traces, keeps the ring buffer of completed ones, and runs
// the slow-query check. The zero Tracer is not usable; construct with
// NewTracer. A nil *Tracer is safe: StartRoot degrades to a no-op.
type Tracer struct {
	mu       sync.Mutex
	ring     []*TraceSnapshot
	next     int
	filled   bool
	slow     time.Duration // < 0: disabled; >= 0: log spans at or above
	slowSpan string        // span name the threshold applies to
	logger   *slog.Logger  // nil: slog.Default() at emit time
}

// NewTracer returns a tracer keeping the last ringSize completed traces
// (default 256 when ringSize <= 0). Slow-query logging starts disabled;
// enable it with SetSlowQuery.
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	return &Tracer{ring: make([]*TraceSnapshot, ringSize), slow: -1}
}

// SetSlowQuery configures the slow-query log: any completed trace
// containing a span named spanName with duration at or above threshold
// emits exactly one structured log record carrying the trace ID and the
// full span tree. A zero threshold logs every such trace; a negative one
// disables the check.
func (t *Tracer) SetSlowQuery(threshold time.Duration, spanName string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow, t.slowSpan = threshold, spanName
	t.mu.Unlock()
}

// SetLogger directs slow-query records to l instead of slog.Default().
func (t *Tracer) SetLogger(l *slog.Logger) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.logger = l
	t.mu.Unlock()
}

// newTraceID returns a 16-hex-digit random trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// fixed ID rather than panicking in a request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// maxTraceIDLen bounds caller-supplied trace IDs (X-Request-ID headers) so
// a hostile client cannot balloon the ring buffer.
const maxTraceIDLen = 64

// sanitizeTraceID accepts a caller-supplied ID, truncating it to
// maxTraceIDLen at a rune boundary; "" asks for a generated ID, and so does
// an ID with control characters or one that is not UTF-8 (JSON would spell
// it differently from the echoed header).
func sanitizeTraceID(id string) string {
	if !utf8.ValidString(id) {
		return ""
	}
	if len(id) > maxTraceIDLen {
		n := maxTraceIDLen
		for !utf8.RuneStart(id[n]) {
			n--
		}
		id = id[:n]
	}
	for _, r := range id {
		if r < 0x20 || r == 0x7f {
			return ""
		}
	}
	return id
}

// StartRoot begins a new trace with a root span of the given name. traceID
// "" generates a fresh ID; a caller-supplied one (the X-Request-ID header)
// is sanitised and honoured so distributed callers can correlate. The
// returned context carries the root span for StartSpan. On a nil tracer it
// returns the context unchanged and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name, traceID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if traceID = sanitizeTraceID(traceID); traceID == "" {
		traceID = newTraceID()
	}
	tr := &activeTrace{tracer: t, snap: TraceSnapshot{TraceID: traceID, Name: name}}
	root := tr.open(name, 0)
	return context.WithValue(ctx, spanKey{}, root), root
}

// finish puts a finished trace into the ring buffer and runs the
// slow-query check.
func (t *Tracer) finish(snap *TraceSnapshot) {
	t.mu.Lock()
	t.ring[t.next] = snap
	t.next++
	if t.next == len(t.ring) {
		t.next, t.filled = 0, true
	}
	slow, slowSpan, logger := t.slow, t.slowSpan, t.logger
	t.mu.Unlock()

	if slow < 0 || slowSpan == "" {
		return
	}
	for _, s := range snap.Spans {
		if s.Name != slowSpan || s.durationRaw < slow {
			continue
		}
		if logger == nil {
			logger = slog.Default()
		}
		logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
			slog.String("trace_id", snap.TraceID),
			slog.String("root", snap.Name),
			slog.String("span", s.Name),
			slog.Int64("span_duration_us", s.DurationUs),
			slog.Int64("trace_duration_us", snap.DurationUs),
			slog.Int64("threshold_us", slow.Microseconds()),
			slog.Any("spans", snap.Spans),
		)
		return // exactly one record per trace
	}
}

// Traces returns the completed traces in the ring, most recent first.
func (t *Tracer) Traces() []*TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.filled {
		n = len(t.ring)
	}
	out := make([]*TraceSnapshot, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Trace returns the completed trace with the given ID, nil when it has
// been evicted or never finished.
func (t *Tracer) Trace(id string) *TraceSnapshot {
	for _, tr := range t.Traces() {
		if tr.TraceID == id {
			return tr
		}
	}
	return nil
}
