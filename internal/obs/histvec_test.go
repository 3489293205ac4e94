package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

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

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_seconds", "help", LogBuckets(1e-6, 2, 8), "route", "code")

	a := v.With("/api/search", "2xx")
	if b := v.With("/api/search", "2xx"); b != a {
		t.Fatal("same label values returned a different histogram")
	}
	if c := v.With("/api/search", "4xx"); c == a {
		t.Fatal("different label values shared a histogram")
	}
	a.ObserveDuration(3 * time.Microsecond)

	var out strings.Builder
	if err := r.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `test_seconds_count{route="/api/search",code="2xx"} 1`) {
		t.Fatalf("labeled series missing from exposition:\n%s", out.String())
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("arity mismatch did not panic")
			}
		}()
		v.With("only-one")
	}()
}

func TestVecSeriesCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("capped_total", "help", "k")
	v.max = 2
	before := mDroppedLabels.Value()

	v.With("a").Inc()
	v.With("b").Inc()
	over := v.With("c") // past the cap: overflow sink
	over.Inc()
	if got := mDroppedLabels.Value() - before; got != 1 {
		t.Fatalf("dropped-labels counter delta = %d, want 1", got)
	}
	if v.With("c") != over {
		t.Fatal("overflow sink not shared across capped label sets")
	}
	if mDroppedLabels.Value()-before != 2 {
		t.Fatal("second capped lookup not counted")
	}

	var out strings.Builder
	if err := r.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `capped_total{k="a"} 1`) || !strings.Contains(s, `capped_total{k="b"} 1`) {
		t.Fatalf("registered series missing:\n%s", s)
	}
	if strings.Contains(s, `k="c"`) {
		t.Fatalf("capped series leaked into the exposition:\n%s", s)
	}
}

func TestHistogramVecCapSharesOverflow(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("h_seconds", "help", DefBuckets, "k")
	v.max = 1
	v.With("a").Observe(0.1)
	o1, o2 := v.With("b"), v.With("c")
	if o1 != o2 {
		t.Fatal("overflow histograms differ")
	}
	o1.Observe(0.2)
	if o2.Count() != 1 {
		t.Fatal("overflow sink did not aggregate")
	}
}
