package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Times are nanoseconds since the tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Reported marks a span laid out from a duration the program returned
	// (er.PipelineResult stage timings) rather than timed by the benchmark.
	Reported bool `json:"reported,omitempty"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// which is how the untraced run pays no tracing cost.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// reported lays child spans of the given durations end to end from the start
// of parent. The stages of er.RunLSH overlap in reality (blocking streams
// into graph construction), so only their lengths are meaningful.
func (t *tracer) reported(parent int, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].Start
	for i, name := range names {
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload,
			Start: at, End: at + int64(durs[i]), Reported: true})
		at += int64(durs[i])
	}
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Reported spans are a breakdown the program gave of their
// parent, not intervals the benchmark timed, so they are left out: the
// parent keeps its whole duration.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Reported {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if !s.Reported {
			self[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
		}
	}
	return self
}

// shares returns, for the first span of the given name, its duration, the
// share of it that child spans the benchmark timed cover, and the share the
// durations the program reported for it add up to.
func (t *tracer) shares(name string) (total time.Duration, timed, reported float64) {
	for _, s := range t.spans {
		if s.Name != name || s.End == s.Start {
			continue
		}
		var kids, rep int64
		for _, c := range t.spans {
			switch {
			case c.Parent != s.ID:
			case c.Reported:
				rep += c.End - c.Start
			default:
				kids += c.End - c.Start
			}
		}
		d := float64(s.End - s.Start)
		return time.Duration(s.End - s.Start), float64(kids) / d, float64(rep) / d
	}
	return 0, 0, 0
}

// spanCost times how long opening and closing one span takes on this box.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer("calibration")
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1))
	}
	return time.Since(start) / n
}

// report prints the per-layer self times of the batch spans and how much of
// the build and the cold start the layers account for.
func (t *tracer) report(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "trace: %d spans; self time per span name:\n", len(t.spans))
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %10.3f ms\n", name, float64(self[name])/1e6)
	}
	for _, root := range []string{"build", "cold_start"} {
		total, timed, _ := t.shares(root)
		fmt.Fprintf(w, "trace: layer spans cover %.1f%% of %s (%.3f s)\n", 100*timed, root, total.Seconds())
	}
	total, _, reported := t.shares("er.RunLSH")
	fmt.Fprintf(w, "trace: the stage times er.RunLSH returns add up to %.1f%% of its %.3f s (over 100%%: stages overlap)\n",
		100*reported, total.Seconds())
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
