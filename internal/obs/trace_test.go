package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeSnapshot(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.StartRoot(context.Background(), "GET /api/search", "req-42")
	if got := TraceIDFromContext(ctx); got != "req-42" {
		t.Fatalf("TraceIDFromContext = %q, want req-42", got)
	}

	sctx, search := StartSpan(ctx, "search")
	_, blocking := StartSpan(sctx, "blocking")
	blocking.SetAttr("memo_hits", 2)
	blocking.End()
	_, rank := StartSpan(sctx, "rank")
	rank.SetAttrStr("note", "trimmed")
	rank.End()
	search.End()
	root.End()

	snap := tr.Trace("req-42")
	if snap == nil {
		t.Fatal("finished trace not in ring")
	}
	if snap.Name != "GET /api/search" {
		t.Errorf("root name %q", snap.Name)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	// Start order: root first.
	if snap.Spans[0].Name != "GET /api/search" || snap.Spans[0].Parent != 0 {
		t.Errorf("first span %+v is not the root", snap.Spans[0])
	}
	searches := snap.SpansNamed("search")
	if len(searches) != 1 || searches[0].Parent != snap.Spans[0].ID {
		t.Fatalf("search span not parented under root: %+v", searches)
	}
	kids := snap.Children(searches[0].ID)
	if len(kids) != 2 || kids[0].Name != "blocking" || kids[1].Name != "rank" {
		t.Fatalf("search children = %+v", kids)
	}
	if len(kids[0].Attrs) != 1 || kids[0].Attrs[0].Key != "memo_hits" {
		t.Errorf("blocking attrs = %+v", kids[0].Attrs)
	}
	// Child durations fit inside their parents.
	if kids[0].DurationUs+kids[1].DurationUs > searches[0].DurationUs+1 {
		t.Errorf("children (%d + %d us) exceed search span (%d us)",
			kids[0].DurationUs, kids[1].DurationUs, searches[0].DurationUs)
	}
	if searches[0].DurationUs > snap.DurationUs+1 {
		t.Errorf("search span (%d us) exceeds trace (%d us)", searches[0].DurationUs, snap.DurationUs)
	}
}

func TestUntracedContextIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "search")
	if ctx2 != ctx {
		t.Error("untraced StartSpan changed the context")
	}
	if sp != nil {
		t.Fatal("untraced StartSpan returned a live span")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	sp.End()
	if TraceIDFromContext(ctx) != "" {
		t.Error("untraced context has a trace ID")
	}

	var tr *Tracer
	ctx3, root := tr.StartRoot(ctx, "x", "")
	if ctx3 != ctx || root != nil {
		t.Error("nil tracer StartRoot is not a no-op")
	}
	tr.SetSlowQuery(0, "search")
	tr.SetLogger(nil)
	if tr.Traces() != nil {
		t.Error("nil tracer has traces")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(2)
	for _, id := range []string{"a", "b", "c"} {
		_, root := tr.StartRoot(context.Background(), "op", id)
		root.End()
	}
	got := tr.Traces()
	if len(got) != 2 || got[0].TraceID != "c" || got[1].TraceID != "b" {
		ids := make([]string, len(got))
		for i, s := range got {
			ids[i] = s.TraceID
		}
		t.Fatalf("ring holds %v, want [c b]", ids)
	}
	if tr.Trace("a") != nil {
		t.Error("evicted trace still found")
	}
}

func TestGeneratedAndSanitisedTraceIDs(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.StartRoot(context.Background(), "op", "")
	id := TraceIDFromContext(ctx)
	if len(id) != 16 {
		t.Errorf("generated trace ID %q, want 16 hex chars", id)
	}
	root.End()

	ctx, root = tr.StartRoot(context.Background(), "op", "evil\nheader")
	if got := TraceIDFromContext(ctx); strings.ContainsAny(got, "\n\r") || got == "" {
		t.Errorf("control characters survived sanitisation: %q", got)
	}
	root.End()

	long := strings.Repeat("x", 200)
	ctx, root = tr.StartRoot(context.Background(), "op", long)
	if got := TraceIDFromContext(ctx); len(got) != maxTraceIDLen {
		t.Errorf("oversized trace ID kept %d chars, want %d", len(got), maxTraceIDLen)
	}
	root.End()
}

// slowTrace runs one trace holding a "search" span that sleeps briefly.
func slowTrace(tr *Tracer, id string) {
	ctx, root := tr.StartRoot(context.Background(), "GET /api/search", id)
	_, search := StartSpan(ctx, "search")
	time.Sleep(time.Millisecond)
	search.End()
	root.End()
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.SetLogger(NewLogger(&buf, 0, "json"))
	tr.SetSlowQuery(0, "search") // zero threshold: log every search

	slowTrace(tr, "slow-1")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d slow-query records, want exactly 1:\n%s", len(lines), buf.String())
	}
	var rec struct {
		Msg     string `json:"msg"`
		TraceID string `json:"trace_id"`
		Spans   []any  `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-query record is not JSON: %v", err)
	}
	if rec.Msg != "slow query" || rec.TraceID != "slow-1" || len(rec.Spans) < 2 {
		t.Fatalf("unexpected slow-query record: %+v", rec)
	}

	// A trace without a search span stays silent.
	buf.Reset()
	_, root := tr.StartRoot(context.Background(), "GET /metrics", "m-1")
	root.End()
	if buf.Len() != 0 {
		t.Fatalf("non-search trace logged: %s", buf.String())
	}

	// A negative threshold disables the check entirely.
	buf.Reset()
	tr.SetSlowQuery(-1, "search")
	slowTrace(tr, "slow-2")
	if buf.Len() != 0 {
		t.Fatalf("disabled slow-query check still logged: %s", buf.String())
	}

	// An unreachably high threshold filters fast searches out.
	buf.Reset()
	tr.SetSlowQuery(time.Hour, "search")
	slowTrace(tr, "slow-3")
	if buf.Len() != 0 {
		t.Fatalf("fast search logged as slow: %s", buf.String())
	}
}

func TestLoggerTraceCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, 0, "json")
	tr := NewTracer(8)
	ctx, root := tr.StartRoot(context.Background(), "op", "corr-7")
	logger.InfoContext(ctx, "inside the trace")
	root.End()
	logger.InfoContext(context.Background(), "outside")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"trace_id":"corr-7"`) {
		t.Errorf("traced record lacks trace_id: %s", lines[0])
	}
	if strings.Contains(lines[1], "trace_id") {
		t.Errorf("untraced record has trace_id: %s", lines[1])
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "": "INFO", "WARN": "WARN", "warning": "WARN", "Error": "ERROR",
	} {
		lvl, err := ParseLevel(s)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", s, err)
		}
		if lvl.String() != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", s, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer(4)
	_, root := tr.StartRoot(context.Background(), "op", "once")
	root.End()
	root.End() // must not finalise (and ring) the trace twice
	if got := len(tr.Traces()); got != 1 {
		t.Fatalf("double End recorded %d traces, want 1", got)
	}
}

// TestSiblingSpansFromGoroutines starts, annotates and ends one child of a
// shared parent per goroutine, as the scatter's workers do: the snapshot
// holds every span, parent before children, in start order with IDs
// ascending.
func TestSiblingSpansFromGoroutines(t *testing.T) {
	const workers = 8
	tr := NewTracer(4)
	ctx, root := tr.StartRoot(context.Background(), "op", "siblings")
	pctx, parent := StartSpan(ctx, "scatter")
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			cctx, child := StartSpan(pctx, "shard_search")
			child.SetAttr("shard", int64(w))
			_, leaf := StartSpan(cctx, "search")
			leaf.SetAttr("shard", int64(w))
			leaf.End()
			child.SetAttrStr("state", "done")
			child.End()
		}(w)
	}
	close(gate)
	wg.Wait()
	parent.End()
	root.End()

	snap := tr.Trace("siblings")
	if snap == nil {
		t.Fatal("finished trace not in ring")
	}
	if got, want := len(snap.Spans), 2+2*workers; got != want {
		t.Fatalf("got %d spans, want %d", got, want)
	}
	index := map[uint64]int{}
	for i, s := range snap.Spans {
		index[s.ID] = i
		if i > 0 {
			prev := snap.Spans[i-1]
			if s.ID <= prev.ID || s.StartUs < prev.StartUs {
				t.Errorf("span %d (id %d, start %dus) follows id %d at %dus", i, s.ID, s.StartUs, prev.ID, prev.StartUs)
			}
		}
	}
	for i, s := range snap.Spans[1:] {
		if p, ok := index[s.Parent]; !ok || p > i {
			t.Errorf("span %d %q: parent %d is not before it", i+1, s.Name, s.Parent)
		}
	}
	kids := snap.Children(snap.SpansNamed("scatter")[0].ID)
	shards := map[int64]bool{}
	for _, k := range kids {
		if k.Name != "shard_search" || len(k.Attrs) != 2 || k.Attrs[0].Key != "shard" || k.Attrs[1].Value != "done" {
			t.Fatalf("scatter child %+v", k)
		}
		shard := k.Attrs[0].Value.(int64)
		shards[shard] = true
		leaves := snap.Children(k.ID)
		if len(leaves) != 1 || leaves[0].Attrs[0].Value != shard {
			t.Errorf("shard %d's search spans: %+v", shard, leaves)
		}
	}
	if len(kids) != workers || len(shards) != workers {
		t.Errorf("scatter has %d children over %d shards, want %d", len(kids), len(shards), workers)
	}
}

// TestSpanAfterRootIsDropped: a span still open when the root ends, and
// annotated and ended afterwards, is absent from the ringed snapshot and
// leaves it unchanged; so is a span started under it afterwards.
func TestSpanAfterRootIsDropped(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartRoot(context.Background(), "op", "late")
	_, done := StartSpan(ctx, "done")
	done.SetAttr("n", 1)
	done.End()
	lctx, late := StartSpan(ctx, "late")
	late.SetAttr("before", 1)
	root.End()

	snap := tr.Trace("late")
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanNamesOf(snap); got != "op,done" {
		t.Fatalf("ringed spans %s, want op,done", got)
	}

	late.SetAttr("after", 2)
	late.SetAttrStr("after", "x")
	_, later := StartSpan(lctx, "later")
	later.SetAttr("k", 3)
	later.End()
	late.End()
	done.SetAttr("after", 4)
	done.End()
	root.End()

	after, err := json.Marshal(tr.Trace("late"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("late writes changed the ringed snapshot:\nbefore %s\nafter  %s", before, after)
	}
	if n := len(tr.Traces()); n != 1 {
		t.Errorf("ring holds %d traces, want 1", n)
	}
}

func spanNamesOf(snap *TraceSnapshot) string {
	names := make([]string, len(snap.Spans))
	for i, s := range snap.Spans {
		names[i] = s.Name
	}
	return strings.Join(names, ",")
}
