package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/shard"
)

// raceEnabled is set by raceon_test.go under -race, where allocation counts
// are meaningless and the ceilings skip themselves.
var raceEnabled bool

var (
	scaleOnce  sync.Once
	scaleGraph *pedigree.Graph
)

// servingStack is the serving path the load benchmark drives, over a
// resolved DS-1k graph: two shards, admission and the SLO tracker on, and a
// result cache of cacheEntries rankings (0: none).
func servingStack(tb testing.TB, cacheEntries int) (*Server, *pedigree.Graph) {
	tb.Helper()
	scaleOnce.Do(func() {
		d := dataset.GenerateScale(dataset.ScaleTier(1000)).Dataset
		pr := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig())
		scaleGraph = pedigree.Build(d, pr.Result.Store)
	})
	srv := NewSharded(shard.Partition(scaleGraph, shard.Options{Shards: 2, SimThreshold: 0.5, CacheEntries: cacheEntries}))
	srv.EnableAdmission(admission.New(admission.DefaultConfig()))
	srv.EnableSLO(obs.NewSLOTracker(250*time.Millisecond, 0.01, 0.05))
	return srv, scaleGraph
}

// searchTarget is the search URL of the first entity with a first name and
// a surname, and focusTarget the pedigree URL of the same entity.
func searchTarget(g *pedigree.Graph) (search, focus string) {
	for i := range g.Nodes {
		if n := &g.Nodes[i]; len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			return "/api/search?first_name=" + url.QueryEscape(n.FirstNames[0]) +
					"&surname=" + url.QueryEscape(n.Surnames[0]),
				"/api/pedigree?id=" + strconv.Itoa(int(n.ID))
		}
	}
	panic("no named entity")
}

// serve sends one GET through ServeHTTP, request and recorder included.
func serve(tb testing.TB, srv *Server, target string) {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("GET %s: status %d", target, w.Code)
	}
}

// serveAllocs is how many allocations one GET of target makes inside
// ServeHTTP: the requests and recorders are made before the count starts.
func serveAllocs(srv *Server, target string) float64 {
	const runs = 200
	ws := make([]*httptest.ResponseRecorder, runs+1) // and AllocsPerRun's warm-up
	rs := make([]*http.Request, runs+1)
	for i := range rs {
		ws[i], rs[i] = httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil)
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		srv.ServeHTTP(ws[i], rs[i])
		i++
	})
}

// TestServeAllocsCeiling holds three GETs through ServeHTTP — routing,
// form parsing, admission, span, metrics, handler and JSON body — to their
// measured allocations: a cached two-shard search, an uncached one, and a
// pedigree (with indented JSON, a metric name rendered per request and a
// display name concatenated per row, 128, 201 and 101). Tracing is still
// most of the uncached search: a handle and a context per span, an any per
// attribute, and the growth of the span and attribute slices.
func TestServeAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cached, g := servingStack(t, 64)
	uncached, _ := servingStack(t, 0)
	search, focus := searchTarget(g)
	for _, c := range []struct {
		name    string
		srv     *Server
		target  string
		ceiling float64
	}{
		{"cached search", cached, search, 36},
		{"uncached search", uncached, search, 95},
		{"pedigree", uncached, focus, 58},
	} {
		serve(t, c.srv, c.target) // warm: the cache, the probe cache, the pools
		if got := serveAllocs(c.srv, c.target); got > c.ceiling {
			t.Errorf("a %s (%s) makes %v allocations, ceiling %v", c.name, c.target, got, c.ceiling)
		}
	}
}

// BenchmarkServeSearch times one search through ServeHTTP at two shards on
// DS-1k, answered from the result cache and scattered to both shards.
func BenchmarkServeSearch(b *testing.B) {
	for _, c := range []struct {
		name  string
		cache int
	}{{"cached", 64}, {"uncached", 0}} {
		b.Run(c.name, func(b *testing.B) {
			srv, g := servingStack(b, c.cache)
			search, _ := searchTarget(g)
			serve(b, srv, search)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, srv, search)
			}
		})
	}
}
