package load

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/pedigree"
)

func TestRouteStatsQuantiles(t *testing.T) {
	st := newRouteStats()
	// 1..1000 ms uniformly: quantiles must land within the ~5% relative
	// error the bucket growth factor guarantees.
	for i := 1; i <= 1000; i++ {
		st.record(200, nil, time.Duration(i)*time.Millisecond)
	}
	rep := st.report()
	if rep.Count != 1000 || rep.OK != 1000 {
		t.Fatalf("count = %d, ok = %d", rep.Count, rep.OK)
	}
	if rep.MaxMs != 1000 {
		t.Fatalf("max = %vms, want exactly 1000 (max is not bucketed)", rep.MaxMs)
	}
	for _, tc := range []struct {
		name      string
		got, want float64
	}{{"p50", rep.P50Ms, 500}, {"p95", rep.P95Ms, 950}, {"p99", rep.P99Ms, 990}} {
		if rel := math.Abs(tc.got-tc.want) / tc.want; rel > 0.06 {
			t.Errorf("%s = %vms, want %v ±6%%", tc.name, tc.got, tc.want)
		}
	}
	if rep.MeanMs < 495 || rep.MeanMs > 506 {
		t.Errorf("mean = %vms, want ~500.5", rep.MeanMs)
	}
}

func TestRouteStatsEmptyAndExtremes(t *testing.T) {
	st := newRouteStats()
	if rep := st.report(); rep.P99Ms != 0 || rep.MaxMs != 0 || rep.MeanMs != 0 {
		t.Fatalf("empty stats must report zeros, got %+v", rep)
	}
	st.record(200, nil, 0)             // below the first bucket
	st.record(200, nil, 5*time.Minute) // beyond the last bucket
	rep := st.report()
	if rep.Count != 2 {
		t.Fatalf("count = %d", rep.Count)
	}
	if rep.MaxMs != 5*60*1000 {
		t.Fatalf("max = %vms", rep.MaxMs)
	}
	if rep.MeanMs != 150*1000 {
		t.Fatalf("mean = %vms, want 150s", rep.MeanMs)
	}
	if q100 := 1e3 * st.Hist.Quantile(1.0); q100 < 60*1000 {
		t.Fatalf("q100 = %vms, want the overflow bucket (>= 60s)", q100)
	}
}

// TestRouteStatsQuantilesNeverExceedMax pins the clamp: one latency just
// above its bucket's lower bound, where geometric interpolation alone puts
// p50 and p99 up to 5% above every observation, reports p50 = p99 = max.
func TestRouteStatsQuantilesNeverExceedMax(t *testing.T) {
	st := newRouteStats()
	st.record(200, nil, time.Duration(math.Ceil(latencyBuckets[140]*1e9))+time.Nanosecond)
	rep := st.report()
	if rep.P50Ms != rep.MaxMs || rep.P99Ms != rep.MaxMs {
		t.Fatalf("one observation: p50 %v, p99 %v, max %v ms; want all equal", rep.P50Ms, rep.P99Ms, rep.MaxMs)
	}
}

func TestRouteStatsConcurrent(t *testing.T) {
	st := newRouteStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				st.record(200, nil, time.Duration(g*1000+i)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	rep := st.report()
	if rep.Count != 8000 {
		t.Fatalf("count = %d, want 8000", rep.Count)
	}
	if rep.MaxMs != 7.999 {
		t.Fatalf("max = %vms, want 7.999 (the CAS must keep the largest)", rep.MaxMs)
	}
}

func testGraph(t *testing.T) *pedigree.Graph {
	t.Helper()
	p := dataset.Generate(dataset.IOS().Scaled(0.03))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	return pedigree.Build(p.Dataset, pr.Result.Store)
}

func TestWorkloadDeterministicAndMixed(t *testing.T) {
	g := testGraph(t)
	w, err := BuildWorkload(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Hot) == 0 || len(w.Cold) == 0 || w.Entities == 0 {
		t.Fatalf("workload pools empty: hot=%d cold=%d entities=%d",
			len(w.Hot), len(w.Cold), w.Entities)
	}
	// The hot pool is the head of the surname distribution, the cold pool
	// its tail — they must not overlap.
	hot := map[string]bool{}
	for _, p := range w.Hot {
		hot[p.Surname] = true
	}
	for _, p := range w.Cold {
		if hot[p.Surname] {
			t.Fatalf("surname %q in both hot and cold pools", p.Surname)
		}
	}

	mix, _ := MixByName("mixed")
	a := w.Ops(mix, 2000, 100, 42)
	b := w.Ops(mix, 2000, 100, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different op sequences")
	}
	c := w.Ops(mix, 2000, 100, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical op sequences")
	}

	// Op i is due i/rate seconds in: the schedule the paced loop follows.
	if a[0].DueUs != 0 || a[1].DueUs != 10_000 || a[1999].DueUs != 19_990_000 {
		t.Fatalf("due offsets at 100 rps = %d, %d, ..., %d µs", a[0].DueUs, a[1].DueUs, a[1999].DueUs)
	}

	// Kind frequencies track the mix probabilities.
	var counts [4]int
	for _, op := range a {
		counts[op.Kind]++
	}
	for kind, want := range map[OpKind]float64{
		OpSearchHot: mix.SearchHot, OpSearchCold: mix.SearchCold,
		OpPedigree: mix.Pedigree, OpIngest: mix.Ingest,
	} {
		got := float64(counts[kind]) / float64(len(a))
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s fraction = %.3f, want %.2f ±0.05", kind.Route(), got, want)
		}
	}
	// Ingest bodies are unique (distinct child names) and valid targets.
	for i, op := range a {
		if op.Kind == OpIngest && len(op.Body) == 0 {
			t.Fatalf("op %d: ingest without body", i)
		}
		if op.Kind == OpPedigree && (op.Entity < 0 || op.Entity >= w.Entities) {
			t.Fatalf("op %d: entity %d out of range", i, op.Entity)
		}
	}
}

// stubTarget answers instantly with a canned status per kind, counting ops.
type stubTarget struct {
	mu     sync.Mutex
	status map[OpKind]int
	seen   map[OpKind]int
}

func (s *stubTarget) Do(op Op) (int, error) {
	s.mu.Lock()
	s.seen[op.Kind]++
	st := s.status[op.Kind]
	s.mu.Unlock()
	if st == 0 {
		st = http.StatusOK
	}
	return st, nil
}

func TestRunnerOpenLoopReport(t *testing.T) {
	g := testGraph(t)
	w, err := BuildWorkload(g)
	if err != nil {
		t.Fatal(err)
	}
	// Pedigree shed, everything else fine — the report must separate the
	// outcomes per route.
	tgt := &stubTarget{
		status: map[OpKind]int{OpPedigree: http.StatusTooManyRequests},
		seen:   map[OpKind]int{},
	}
	mix, _ := MixByName("mixed")
	rep, err := Run(tgt, w, mix, Config{Rate: 2000, Duration: 250 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 400 {
		t.Fatalf("requests = %d, want ~500 at 2000 rps for 250ms", rep.Requests)
	}
	ped, ok := rep.Routes["pedigree"]
	if !ok {
		t.Fatal("no pedigree route in report")
	}
	if ped.Shed != ped.Count || ped.OK != 0 {
		t.Fatalf("pedigree: %d/%d shed, want all", ped.Shed, ped.Count)
	}
	for _, route := range []string{"search_hot", "search_cold", "ingest"} {
		r, ok := rep.Routes[route]
		if !ok {
			t.Fatalf("no %s route in report", route)
		}
		if r.OK != r.Count || r.Shed != 0 || r.Errors != 0 {
			t.Fatalf("%s: %+v, want all OK", route, r)
		}
		if r.P99Ms < r.P50Ms {
			t.Fatalf("%s: p99 %.3fms < p50 %.3fms", route, r.P99Ms, r.P50Ms)
		}
	}
	if rep.AchievedRate < 0.5*rep.OfferedRate {
		t.Fatalf("achieved %.0f rps of %.0f offered against an instant stub",
			rep.AchievedRate, rep.OfferedRate)
	}
	// The last of the 500 ops is due 249.5ms in: an instant stub cannot
	// finish sooner unless the schedule was ignored.
	if rep.DurationSec < 0.2495 {
		t.Fatalf("run took %.4fs, under the 0.2495s schedule: pacing not applied", rep.DurationSec)
	}
}

// TestReplayPaced checks that pace replays the ops on their DueUs schedule:
// six ops spread over 10ms against an instant stub take at least 10ms, none
// is dropped, and each outcome lands under its route.
func TestReplayPaced(t *testing.T) {
	ops := make([]Op, 6)
	for i := range ops {
		ops[i] = Op{Kind: OpKind(i % 4), DueUs: int64(i) * 2000}
	}
	tgt := &stubTarget{status: map[OpKind]int{}, seen: map[OpKind]int{}}
	stats := map[string]*RouteStats{}
	for k := OpSearchHot; k <= OpIngest; k++ {
		stats[k.Route()] = newRouteStats()
	}

	start := time.Now()
	dropped := pace(tgt, ops, 0, stats)
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Errorf("paced replay finished in %v, under the 10ms schedule: pacing not applied", el)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d of %d ops with no outstanding pressure", dropped, len(ops))
	}
	for k, want := range map[OpKind]int64{OpSearchHot: 2, OpSearchCold: 2, OpPedigree: 1, OpIngest: 1} {
		if got := stats[k.Route()].Count; got != want {
			t.Errorf("%s: %d ops recorded, want %d", k.Route(), got, want)
		}
	}
}

// blockedTarget never completes until released — drives the outstanding cap.
type blockedTarget struct{ release chan struct{} }

func (b *blockedTarget) Do(Op) (int, error) {
	<-b.release
	return http.StatusOK, nil
}

func TestRunnerBoundsOutstanding(t *testing.T) {
	g := testGraph(t)
	w, err := BuildWorkload(g)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &blockedTarget{release: make(chan struct{})}
	done := make(chan *MixReport, 1)
	go func() {
		rep, err := Run(tgt, w, Mixes()[0], Config{
			Rate: 5000, Duration: 100 * time.Millisecond, MaxOutstanding: 16, Seed: 1,
		})
		if err != nil {
			panic(fmt.Sprint("run: ", err))
		}
		done <- rep
	}()
	// Let the arrival schedule finish (stalled server), then release.
	time.Sleep(300 * time.Millisecond)
	close(tgt.release)
	rep := <-done
	if rep.Requests != 16 {
		t.Fatalf("launched %d requests, want exactly the outstanding cap 16", rep.Requests)
	}
	if rep.Dropped == 0 {
		t.Fatal("no arrivals dropped despite a fully stalled target")
	}
	if rep.Requests+rep.Dropped < 400 {
		t.Fatalf("schedule generated %d arrivals, want ~500", rep.Requests+rep.Dropped)
	}
}
