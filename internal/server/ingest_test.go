package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/ingest"
)

// ingestFamily wires the deterministic two-birth family behind a one-shard
// coordinator with live ingestion enabled.
func ingestFamily(t *testing.T, cfg ingest.Config) (*Server, *ingest.Pipeline) {
	t.Helper()
	return shardedFamily(t, 1, cfg)
}

const torquilDeathJSON = `{
	"type": "death", "year": 1875, "age": 5, "cause": "measles",
	"address": "5 uig",
	"roles": {
		"Dd": {"first_name": "Torquil", "surname": "MacSween", "gender": "m"},
		"Dm": {"first_name": "Flora", "surname": "MacSween"},
		"Df": {"first_name": "Ewen", "surname": "MacSween"}
	}
}`

// searchTorquil returns the top search result and whether any was found.
func searchTorquil(t *testing.T, ts *httptest.Server) (SearchResult, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/search?first_name=torquil&surname=macsween")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		return SearchResult{}, false
	}
	return sr.Results[0], true
}

// deathYearOf extracts the focus member's death year from the pedigree of
// an entity.
func deathYearOf(t *testing.T, ts *httptest.Server, entity int32) int {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/pedigree?id=%d", ts.URL, entity))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ped PedigreeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ped); err != nil {
		t.Fatal(err)
	}
	for _, m := range ped.Members {
		if m.Entity == entity {
			return m.Death
		}
	}
	return 0
}

// TestIngestEndToEndLiveness is the acceptance test of the live ingestion
// subsystem: a server answering queries on a built data set accepts a new
// certificate that matches an existing entity, and within one batch flush a
// query returns the updated entity — while concurrent searches race the
// snapshot swap (run under -race).
func TestIngestEndToEndLiveness(t *testing.T) {
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1 // flush on the first certificate
	cfg.MaxAge = 50 * time.Millisecond
	srv, _ := ingestFamily(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Baseline: torquil exists with no death year.
	res, ok := searchTorquil(t, ts)
	if !ok {
		t.Fatal("baseline search found nothing")
	}
	if y := deathYearOf(t, ts, res.Entity); y != 0 {
		t.Fatalf("baseline death year %d, want 0", y)
	}

	// Hammer the search endpoint while the swap happens.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/api/search?first_name=torquil&surname=macsween")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	// POST the death certificate.
	resp, err := http.Post(ts.URL+"/api/ingest", "application/json",
		strings.NewReader(torquilDeathJSON))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}

	// Within one batch flush the served entity reflects the death record.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if res, ok := searchTorquil(t, ts); ok {
			if y := deathYearOf(t, ts, res.Entity); y == 1875 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("ingested certificate not served within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Status reflects the applied certificate.
	resp, err = http.Get(ts.URL + "/api/ingest/status")
	if err != nil {
		t.Fatal(err)
	}
	var st ingest.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted != 1 || st.Applied != 1 || st.Records != 9 {
		t.Errorf("status %+v", st)
	}
}

// TestIngestSyncFlush covers the ?sync=1 path: the response only returns
// after the batch was resolved and swapped in.
func TestIngestSyncFlush(t *testing.T) {
	srv, pipe := ingestFamily(t, ingest.Config{BatchSize: 1 << 20, MaxAge: time.Hour})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/ingest?sync=1", "application/json",
		strings.NewReader(torquilDeathJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync ingest status %d", resp.StatusCode)
	}
	var st ingest.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || st.Pending != 0 {
		t.Errorf("sync status %+v", st)
	}
	res, ok := searchTorquil(t, ts)
	if !ok {
		t.Fatal("search found nothing after sync ingest")
	}
	if y := deathYearOf(t, ts, res.Entity); y != 1875 {
		t.Errorf("death year %d, want 1875 immediately after sync flush", y)
	}
	if pipe.Pending() != 0 {
		t.Errorf("pending %d after sync flush", pipe.Pending())
	}
}

func TestIngestRejectsInvalid(t *testing.T) {
	srv, _ := ingestFamily(t, ingest.Config{BatchSize: 1 << 20, MaxAge: time.Hour})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for name, body := range map[string]string{
		"not json":        "not json at all",
		"unknown type":    `{"type":"baptism","year":1875,"roles":{"Bb":{"first_name":"a","surname":"b"}}}`,
		"no principal":    `{"type":"birth","year":1875,"roles":{"Bm":{"first_name":"a","surname":"b"}}}`,
		"unknown field":   `{"type":"birth","bogus":1,"roles":{"Bb":{"first_name":"a","surname":"b"}}}`,
		"wrong-type role": `{"type":"birth","year":1875,"roles":{"Dd":{"first_name":"a","surname":"b"}}}`,
	} {
		resp, err := http.Post(ts.URL+"/api/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// GET on the submit endpoint is not allowed.
	resp, err := http.Get(ts.URL + "/api/ingest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/ingest status %d, want 405", resp.StatusCode)
	}
}
