package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/shard"
)

// shardedFamily builds the deterministic two-birth family behind an
// n-shard coordinator with live ingestion enabled.
func shardedFamily(t *testing.T, nshards int, cfg ingest.Config) (*Server, *ingest.Pipeline) {
	t.Helper()
	sv := familyServing(nshards, cfg)
	srv := NewSharded(sv.Shards)
	pipe, err := ingest.NewPipeline(sv, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableIngest(pipe)
	t.Cleanup(func() { pipe.Close() })
	return srv, pipe
}

// familyServing resolves the deterministic two-birth family into an n-shard
// serving bundle.
func familyServing(nshards int, cfg ingest.Config) *ingest.Serving {
	d := &model.Dataset{Name: "live-sharded"}
	add := func(role model.Role, cert model.CertID, first, sur string, year int, g model.Gender) model.RecordID {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Cert: cert, Role: role, Gender: g,
			First: model.Intern(first), Sur: model.Intern(sur), Addr: model.Intern("5 uig"), Year: year,
			Truth: model.NoPerson,
		})
		return id
	}
	add(model.Bb, 0, "torquil", "macsween", 1870, model.Male)
	add(model.Bm, 0, "flora", "macsween", 1870, model.Female)
	add(model.Bf, 0, "ewen", "macsween", 1870, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 0, Type: model.Birth, Year: 1870, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 0, model.Bm: 1, model.Bf: 2},
	})
	add(model.Bb, 1, "una", "macsween", 1872, model.Female)
	add(model.Bm, 1, "flora", "macsween", 1872, model.Female)
	add(model.Bf, 1, "ewen", "macsween", 1872, model.Male)
	d.Certificates = append(d.Certificates, model.Certificate{
		ID: 1, Type: model.Birth, Year: 1872, Age: -1,
		Roles: map[model.Role]model.RecordID{model.Bb: 3, model.Bm: 4, model.Bf: 5},
	})

	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	return ingest.NewServing(d, pr.Result.Store, nshards, cfg)
}

// hotShardBirthJSON renders an ingest certificate whose principal (the
// baby) carries the given name, so RouteCert sends it to
// shard.Route(first, sur, n).
func hotShardBirthJSON(first, sur string, year int) string {
	return fmt.Sprintf(`{
		"type": "birth", "year": %d, "address": "7 staffin",
		"roles": {
			"Bb": {"first_name": %q, "surname": %q, "gender": "m"},
			"Bm": {"first_name": "morag", "surname": %q},
			"Bf": {"first_name": "alasdair", "surname": %q}
		}
	}`, year, first, sur, sur, sur)
}

// TestHotShardBackpressureHTTP is the regression for the hot-shard
// blind spot: before per-shard accounting, a backlog concentrated on one
// partition hid behind the global average and admission never pushed
// back. The test saturates a single shard — the global backlog stays far
// under its own bound — and asserts POST /api/ingest sheds with 429 +
// Retry-After and reason shard_backlog, while GET /healthz turns 503 and
// its per-shard split names the hot shard (honest readiness).
func TestHotShardBackpressureHTTP(t *testing.T) {
	const nshards = 4
	icfg := ingest.DefaultConfig()
	icfg.BatchSize = 1 << 20 // flush only when the test says so
	icfg.MaxAge = time.Hour
	srv, pipe := shardedFamily(t, nshards, icfg)

	acfg := admission.DefaultConfig()
	acfg.MaxBacklogRecords = 100 // global bound far away: only the shard bound may trip
	acfg.MaxShardBacklogRecords = 2
	acfg.BacklogRetryAfter = 3 * time.Second
	acfg.Backlog = pipe.Backlog
	acfg.ShardBacklog = pipe.HottestShardBacklog
	srv.EnableAdmission(admission.New(acfg))
	srv.EnableHealth(pipe)

	// Pick certificates that all route to one shard: distinct baby first
	// names, same surname, identical route.
	hotShard := shard.Route("hotname0", "hotclan", nshards)
	var certs []string
	for i := 0; len(certs) < 3; i++ {
		first := fmt.Sprintf("hotname%d", i)
		if shard.Route(first, "hotclan", nshards) == hotShard {
			certs = append(certs, hotShardBirthJSON(first, "hotclan", 1880+i))
		}
	}

	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/ingest", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(w, req)
		return w
	}
	shedKey := "snaps_admission_shed_total{" + obs.Label("class", "ingest") + "," +
		obs.Label("reason", "shard_backlog") + "}"
	shedBefore := obs.Default.Counter(shedKey, "").Value()

	// Fill the hot shard to its bound; every other shard stays empty.
	for i := 0; i < 2; i++ {
		if w := post(certs[i]); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	for s, b := range pipe.ShardBacklog() {
		want := 0
		if s == hotShard {
			want = 2
		}
		if b.Pending != want {
			t.Fatalf("shard %d backlog = %d records, want %d", s, b.Pending, want)
		}
	}
	// The blind spot being fixed: globally this is 2 records against a
	// bound of 100 — the average would sail through admission.
	if rec, _ := pipe.Backlog(); rec != 2 || rec >= acfg.MaxBacklogRecords {
		t.Fatalf("global backlog = %d records, want 2 (< global bound %d)", rec, acfg.MaxBacklogRecords)
	}

	// At the per-shard bound: ingest sheds with the flush-horizon
	// Retry-After, attributed to the shard_backlog reason.
	w := post(certs[2])
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over hot-shard bound: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want %q (the flush horizon)", ra, "3")
	}
	if shed := obs.Default.Counter(shedKey, "").Value() - shedBefore; shed < 1 {
		t.Fatalf("shard_backlog shed counter advanced by %d, want >= 1", shed)
	}

	// Honest readiness: /healthz is 503/overloaded and its per-shard
	// split exposes the hot shard the global numbers hide.
	hw := do(srv, "GET", "/healthz")
	if hw.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with hot shard: status %d, want 503", hw.Code)
	}
	var health HealthResponse
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil {
		t.Fatalf("bad /healthz JSON: %v", err)
	}
	if health.Status != "overloaded" {
		t.Fatalf("health status %q, want overloaded", health.Status)
	}
	if health.BacklogRecords != 2 {
		t.Fatalf("health global backlog = %d records, want 2", health.BacklogRecords)
	}
	if len(health.Shards) != nshards {
		t.Fatalf("health reports %d shards, want %d", len(health.Shards), nshards)
	}
	for s, b := range health.Shards {
		want := 0
		if s == hotShard {
			want = 2
		}
		if b.Shard != s || b.Pending != want {
			t.Fatalf("health shard %d = %+v, want shard %d with %d records", s, b, s, want)
		}
	}

	// Search traffic is untouched by ingest backpressure — and it flows
	// through the scatter-gather coordinator.
	if w := do(srv, "GET", "/api/search?first_name=torquil&surname=macsween"); w.Code != http.StatusOK {
		t.Fatalf("search during hot-shard backpressure: status %d", w.Code)
	}

	// A flush drains the hot shard, reopens admission, and the retried
	// certificate becomes searchable in the republished coordinator.
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := post(certs[2]); w.Code != http.StatusAccepted {
		t.Fatalf("submit after flush: status %d: %s", w.Code, w.Body.String())
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if hw := do(srv, "GET", "/healthz"); hw.Code != http.StatusOK {
		t.Fatalf("/healthz after drain: status %d, want 200", hw.Code)
	}
	if w := do(srv, "GET", "/api/search?first_name=hotname0&surname=hotclan"); w.Code != http.StatusOK {
		t.Fatalf("search for ingested name: status %d", w.Code)
	} else {
		var sr SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) == 0 {
			t.Fatal("ingested hot-shard certificate not searchable after flush")
		}
	}
}
