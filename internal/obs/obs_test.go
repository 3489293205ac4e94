package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 0.5, 1.5, 3, 3, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-118.5) > 1e-9 {
		t.Fatalf("sum = %g, want 118.5", h.Sum())
	}
	// p50: rank 4 lands in the (2,4] bucket (cum: 2,3,6).
	if q := h.Quantile(0.5); q <= 2 || q > 4 {
		t.Fatalf("p50 = %g, want within (2,4]", q)
	}
	// The +Inf observation clamps quantiles to the largest finite bound.
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %g, want clamp to 8", q)
	}
	// Out-of-range q values clamp instead of panicking.
	if q := h.Quantile(-1); q != h.Quantile(0) {
		t.Fatalf("negative quantile %g != zero quantile %g", q, h.Quantile(0))
	}
	if q := h.Quantile(2); q != 8 {
		t.Fatalf("quantile(2) = %g, want 8", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(DefBuckets)
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	if h.Sum() != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram sum/count = %g/%d", h.Sum(), h.Count())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(DefBuckets)
	h.ObserveDuration(250 * time.Millisecond)
	if h.Count() != 1 || math.Abs(h.Sum()-0.25) > 1e-9 {
		t.Fatalf("duration observation: count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestHistogramBoundsSortedAndCopied(t *testing.T) {
	bounds := []float64{4, 1, 2}
	h := NewHistogram(bounds)
	bounds[0] = 99 // caller's slice must not alias the histogram's
	h.Observe(3)
	if q := h.Quantile(1); q <= 2 || q > 4 {
		t.Fatalf("quantile over unsorted input bounds = %g, want within (2,4]", q)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("snaps_test_total", "help one")
	b := r.Counter("snaps_test_total", "help ignored")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counters out of sync")
	}
	if g1, g2 := r.Gauge("snaps_g", ""), r.Gauge("snaps_g", ""); g1 != g2 {
		t.Fatal("same name should return the same gauge")
	}
	if h1, h2 := r.Histogram("snaps_h", "", DefBuckets), r.Histogram("snaps_h", "", DefBuckets); h1 != h2 {
		t.Fatal("same name should return the same histogram")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("snaps_test_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter name should panic")
		}
	}()
	r.Gauge("snaps_test_total", "")
}

// TestCounterFunc: a read-callback counter is an ordinary counter to every
// reader — a later lookup by name and the exposition both see the callback's
// value — and its name cannot be given a second source.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.CounterFunc("snaps_striped_total", "Summed on read.", func() int64 { return n })
	n++
	if got := r.Counter("snaps_striped_total", "").Value(); got != 42 {
		t.Fatalf("Value() = %d, want the callback's 42", got)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || !strings.Contains(sb.String(), "snaps_striped_total 42\n") {
		t.Fatalf("exposition %q, err %v: want the callback's value", sb.String(), err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a second source for the name should panic")
		}
	}()
	r.CounterFunc("snaps_striped_total", "", func() int64 { return 0 })
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "9leading_digit", "has space", "bad{unclosed", "bad-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should panic", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("route", "a\"b\\c\nd")
	want := `route="a\"b\\c\nd"`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
}

// lineRE matches one sample line of the text exposition format.
var lineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+]?[0-9.eE+]+$`)

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("snaps_a_total", "Total As.").Add(3)
	r.Counter(`snaps_a_total{`+Label("kind", "x")+`}`, "Total As.").Add(2)
	r.Gauge("snaps_depth", "Queue depth.").Set(7)
	h := r.Histogram("snaps_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE snaps_a_total counter",
		"# HELP snaps_a_total Total As.",
		"snaps_a_total 3",
		`snaps_a_total{kind="x"} 2`,
		"# TYPE snaps_depth gauge",
		"snaps_depth 7",
		"# TYPE snaps_lat_seconds histogram",
		`snaps_lat_seconds_bucket{le="0.1"} 1`,
		`snaps_lat_seconds_bucket{le="1"} 2`,
		`snaps_lat_seconds_bucket{le="+Inf"} 3`,
		"snaps_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family even with several labelled series.
	if n := strings.Count(out, "# TYPE snaps_a_total"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
	// Every sample line parses.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestStageTimerRecordsIntoDefaultRegistry(t *testing.T) {
	st := StartStage("obs_test_stage")
	time.Sleep(time.Millisecond)
	d := st.Stop()
	if d <= 0 {
		t.Fatalf("stage duration = %v", d)
	}
	h := StageHistogram("obs_test_stage")
	if h.Count() == 0 {
		t.Fatal("stage observation not recorded")
	}
	if math.Abs(h.Sum()-d.Seconds()) > 1e-6 && h.Count() == 1 {
		t.Fatalf("stage sum %g != stopped duration %g", h.Sum(), d.Seconds())
	}

	ObserveStage("obs_test_stage", 2*time.Millisecond)
	if h.Count() < 2 {
		t.Fatal("ObserveStage did not record")
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("snaps_conc_seconds", "", DefBuckets)
	c := r.Counter("snaps_conc_total", "")
	g := r.Gauge("snaps_conc_depth", "")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%10) / 100)
				c.Inc()
				g.Add(1)
				// Concurrent registration of the same names must be safe.
				r.Counter("snaps_conc_total", "").Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 2*workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), 2*workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	wantSum := 0.0
	for i := 0; i < per; i++ {
		wantSum += float64(i%10) / 100
	}
	wantSum *= workers
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 2, 5)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6, 16e-6}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { LogBuckets(0, 2, 5) },
		func() { LogBuckets(1e-6, 1, 5) },
		func() { LogBuckets(1e-6, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("LogBuckets accepted invalid arguments")
				}
			}()
			bad()
		}()
	}
}

// Log-spaced layouts must interpolate quantiles geometrically — bounded
// relative error, which internal/load's reports rely on — while linear
// layouts (DefBuckets) keep Prometheus-style linear interpolation.
func TestQuantileGeometricOnLogBuckets(t *testing.T) {
	h := NewHistogram(LogBuckets(1e-6, 2, 27))
	if h.growth == 0 {
		t.Fatal("log-spaced layout not detected")
	}
	// All observations land in the bucket (64µs, 128µs]; the median must be
	// the geometric midpoint of the bucket, not the arithmetic one.
	for i := 0; i < 100; i++ {
		h.Observe(100e-6)
	}
	got := h.Quantile(0.5)
	want := 64e-6 * math.Pow(2, 0.5) // lo * (hi/lo)^0.5
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("geometric median = %g, want %g", got, want)
	}

	// DefBuckets are not constant-ratio: they must stay linear.
	if lh := NewHistogram(DefBuckets); lh.growth != 0 {
		t.Errorf("DefBuckets detected as log-spaced (growth %g)", lh.growth)
	}
	if lh := NewHistogram(CountBuckets); lh.growth != 0 {
		t.Errorf("CountBuckets detected as log-spaced (growth %g)", lh.growth)
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram(LogBuckets(1e-6, 2, 10))
	h.ObserveExemplar(3e-6, "deadbeef00000001")
	h.ObserveExemplar(5e-6, "") // untraced: no exemplar
	i := 2                      // 3e-6 lands in (2e-6, 4e-6]
	ex := h.BucketExemplar(i)
	if ex == nil || ex.TraceID != "deadbeef00000001" || ex.Value != 3e-6 {
		t.Fatalf("bucket exemplar = %+v", ex)
	}
	// Latest-wins within a bucket.
	h.ObserveExemplar(3.5e-6, "deadbeef00000002")
	if ex := h.BucketExemplar(i); ex == nil || ex.TraceID != "deadbeef00000002" {
		t.Fatalf("exemplar not overwritten: %+v", ex)
	}
	if ex := h.BucketExemplar(99); ex != nil {
		t.Fatalf("out-of-range bucket returned exemplar %+v", ex)
	}
}
