package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
)

// Names that JSON must escape or carry as UTF-8: a quote, a backslash,
// HTML's < and & (which the encoder escapes too), and non-ASCII letters.
const (
	quotedFirst    = `se"án`
	slashedSur     = `mac\dùbh`
	markupFather   = `<b>&ewen`
	nonASCIIMother = "þóra"
)

// escapingServer serves one birth whose names need escaping, with every
// JSON route mounted.
func escapingServer(t *testing.T) *Server {
	t.Helper()
	d := &model.Dataset{Name: `births <"&\> ñ`}
	roles := map[model.Role]model.RecordID{}
	for _, r := range []struct {
		role       model.Role
		first, sur string
		gender     model.Gender
	}{
		{model.Bb, quotedFirst, slashedSur, model.Male},
		{model.Bm, nonASCIIMother, slashedSur, model.Female},
		{model.Bf, markupFather, slashedSur, model.Male},
	} {
		id := model.RecordID(len(d.Records))
		d.Records = append(d.Records, model.Record{
			ID: id, Role: r.role, Gender: r.gender,
			First: model.Intern(r.first), Sur: model.Intern(r.sur), Addr: model.Intern("1 ùig"), Year: 1871,
			Truth: model.NoPerson,
		})
		roles[r.role] = id
	}
	d.Certificates = append(d.Certificates, model.Certificate{Type: model.Birth, Year: 1871, Age: -1, Roles: roles})
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	cfg := ingest.DefaultConfig()
	sv := ingest.NewServing(d, pr.Result.Store, 2, cfg)
	srv := NewSharded(sv.Shards)
	pipe, err := ingest.NewPipeline(sv, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pipe.Close() })
	srv.EnableIngest(pipe)
	srv.EnableHealth(pipe)
	srv.EnableStats()
	srv.EnableFeedback()
	srv.EnableExplain()
	srv.EnableTraceDebug()
	return srv
}

// TestJSONRoutesCompact sends one request to every JSON route: each body is
// one compact JSON value and a newline, in one Write whose Content-Length
// is the body's, and the search and pedigree bodies decode to the values
// the server built for them, escaped names included.
func TestJSONRoutesCompact(t *testing.T) {
	srv := escapingServer(t)
	g := srv.Graph()
	focus := -1
	for i := range g.Nodes {
		if first, sur := g.Nodes[i].NameParts(); first == quotedFirst && sur == slashedSur {
			focus = i
		}
	}
	if focus < 0 {
		t.Fatalf("no entity named %q %q", quotedFirst, slashedSur)
	}
	names := "first_name=" + url.QueryEscape(quotedFirst) + "&surname=" + url.QueryEscape(slashedSur)
	id := "id=" + strconv.Itoa(focus)
	// send checks that the body is one compact JSON value and a newline,
	// sent with its Content-Length, and returns it.
	send := func(method, target, body string) []byte {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
		got := w.Body.Bytes()
		switch {
		case w.Code != http.StatusOK:
			t.Errorf("%s %s: status %d: %s", method, target, w.Code, got)
		case w.Header().Get("Content-Type") != "application/json":
			t.Errorf("%s %s: Content-Type %q", method, target, w.Header().Get("Content-Type"))
		case w.Header().Get("Content-Length") != strconv.Itoa(len(got)):
			t.Errorf("%s %s: Content-Length %s for %d bytes", method, target, w.Header().Get("Content-Length"), len(got))
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, got); err != nil {
			t.Errorf("%s %s: not JSON: %v", method, target, err)
		}
		if compact.WriteByte('\n'); !bytes.Equal(compact.Bytes(), got) {
			t.Errorf("%s %s: body is not compact JSON and a newline:\n%s", method, target, got)
		}
		return got
	}

	var got SearchResponse
	if err := json.Unmarshal(send(http.MethodGet, "/api/search?"+names, ""), &got); err != nil {
		t.Fatal(err)
	}
	q := srv.parseQuery(httptest.NewRequest(http.MethodGet, "/api/search?"+names, nil))
	want, _, err := srv.search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want) {
		t.Errorf("search body decodes to\n%+v\nwant\n%+v", got.Results, want)
	}
	wantName := quotedFirst + " " + slashedSur
	found := false
	for _, r := range got.Results {
		found = found || r.Name == wantName
	}
	if !found {
		t.Errorf("no search row is named %q", wantName)
	}

	var gotPed PedigreeResponse
	if err := json.Unmarshal(send(http.MethodGet, "/api/pedigree?"+id, ""), &gotPed); err != nil {
		t.Fatal(err)
	}
	wantPed, err := srv.extractPedigree(httptest.NewRequest(http.MethodGet, "/api/pedigree?"+id, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotPed, wantPed) {
		t.Errorf("pedigree body decodes to\n%+v\nwant\n%+v", gotPed, *wantPed)
	}
	members := map[string]bool{}
	for _, m := range gotPed.Members {
		members[m.Name] = true
	}
	for _, first := range []string{quotedFirst, nonASCIIMother, markupFather} {
		if !members[first+" "+slashedSur] {
			t.Errorf("no pedigree member is named %q", first+" "+slashedSur)
		}
	}

	// The other JSON routes, the ingest last: its flush changes the graph.
	for _, c := range []struct{ method, target, body string }{
		{http.MethodGet, "/api/explain?" + id + "&" + names, ""},
		{http.MethodGet, "/api/ingest/status", ""},
		{http.MethodGet, "/api/stats", ""},
		{http.MethodGet, "/api/feedback", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/api/debug/traces", ""},
		{http.MethodPost, "/api/ingest?sync=1", hotShardBirthJSON(quotedFirst, slashedSur, 1873)},
	} {
		send(c.method, c.target, c.body)
	}
}
