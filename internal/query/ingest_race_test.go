// This file is an external test (package query_test) so it can close the
// loop the production server runs: internal/ingest hot-swapping serving
// bundles that internal/query reads through an atomic pointer, while
// internal/server scrapes every metric the three packages record.
package query_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/server"
)

// raceCert builds the i-th distinct birth certificate for the hammer.
func raceCert(i int) *ingest.Certificate {
	return &ingest.Certificate{
		Type: "birth", Year: 1880 + i%30, Address: fmt.Sprintf("%d uig", i%7),
		Roles: map[string]ingest.Person{
			"Bb": {FirstName: fmt.Sprintf("tormod%d", i), Surname: "macleod", Gender: "m"},
			"Bm": {FirstName: "mairi", Surname: "macleod"},
			"Bf": {FirstName: "norman", Surname: "macleod"},
		},
	}
}

// TestConcurrentSearchFlushAndScrape hammers, under -race, the full
// concurrent surface the observability layer touches: Engine.Search on
// whatever generation the atomic.Pointer currently serves, ingest flushes
// swapping in new generations mid-read, and GET /metrics scrapes reading
// every counter and histogram the other goroutines are writing.
func TestConcurrentSearchFlushAndScrape(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.03))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 4
	sv := ingest.NewServing(p.Dataset, pr.Result.Store, 1, cfg)
	pipe, err := ingest.NewPipeline(sv, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	srv := server.NewSharded(sv.Shards)
	srv.EnableIngest(pipe)

	// A name guaranteed to stay resolvable across generations.
	var first, sur string
	for i := range sv.Graph.Nodes {
		n := &sv.Graph.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			first, sur = n.FirstNames[0], n.Surnames[0]
			break
		}
	}
	if first == "" {
		t.Fatal("no searchable entity in the generated graph")
	}

	var wg sync.WaitGroup

	// Searchers: half query the coordinator directly off the serving pointer
	// (exercising the swap-during-read path), half go through the HTTP
	// handler so the request middleware is hammered too.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if g%2 == 0 {
					engine := pipe.Serving().Shards
					engine.Search(query.Query{FirstName: first, Surname: sur})
					continue
				}
				target := "/api/search?first_name=" + url.QueryEscape(first) +
					"&surname=" + url.QueryEscape(sur)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
				if w.Code != http.StatusOK {
					t.Errorf("search status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(g)
	}

	// Submitters: enqueue certificates and force flushes, so generations
	// swap while the searchers read.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if err := pipe.Submit(raceCert(g*100 + i)); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%4 == 3 {
					if err := pipe.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(g)
	}

	// Scrapers: read the whole registry while everyone else writes it.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
				if w.Code != http.StatusOK {
					t.Errorf("metrics status %d", w.Code)
					return
				}
				if !strings.Contains(w.Body.String(), "snaps_query_searches_total") {
					t.Error("metrics scrape missing snaps_query_searches_total")
					return
				}
			}
		}()
	}

	wg.Wait()

	// The swapped-in generation must serve the ingested certificates.
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	results := pipe.Serving().Shards.Search(query.Query{FirstName: "tormod1", Surname: "macleod"})
	if len(results) == 0 {
		t.Fatal("ingested certificate not searchable after final flush")
	}

	// After a search and an ingest flush the scrape must show all three
	// headline metrics nonzero (the ISSUE's acceptance criterion).
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		"snaps_http_requests_total{", "snaps_ingest_flush_seconds_count ",
		"snaps_query_searches_total ", "snaps_ingest_snapshot_swaps_total ",
	} {
		line := ""
		for _, l := range strings.Split(body, "\n") {
			if strings.HasPrefix(l, want) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("metrics scrape missing %q series", want)
		}
		if strings.HasSuffix(line, " 0") {
			t.Fatalf("metric %q is zero after search + flush: %s", want, line)
		}
	}
}
