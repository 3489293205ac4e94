package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/obs"
)

// TestHealthzReportsSLOBurn checks /healthz surfaces the burn windows and
// flips to "burning" when both windows page.
func TestHealthzReportsSLOBurn(t *testing.T) {
	srv, g := testServer(t)
	first, sur := someName(g)
	srv.EnableHealth(nil)
	srv.EnableSLO(obs.NewSLOTracker(time.Nanosecond, 0.001, 0.001)) // everything is slow

	if w := do(srv, "GET", "/api/search?first_name="+first+"&surname="+sur); w.Code != http.StatusOK {
		t.Fatalf("search status %d", w.Code)
	}

	w := do(srv, "GET", "/healthz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("burning /healthz status %d, want 503", w.Code)
	}
	body := w.Body.String()
	if !strings.Contains(body, `"burning"`) {
		t.Errorf("healthz did not report burning: %s", body)
	}
	if !strings.Contains(body, `"1m"`) || !strings.Contains(body, `"5m"`) {
		t.Errorf("healthz missing burn windows: %s", body)
	}
}
