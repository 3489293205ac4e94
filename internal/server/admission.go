package server

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/snaps/snaps/internal/admission"
)

// EnableAdmission fronts every request with the admission controller:
// requests are classified by their mux route pattern, charged against the
// weighted in-flight budget and — for ingest — checked against the journal
// backlog, before any handler runs. Shed requests get
// 429 with a Retry-After hint; /metrics, /healthz, and the status/debug
// endpoints are exempt so the server stays observable exactly when it is
// shedding.
func (s *Server) EnableAdmission(c *admission.Controller) {
	s.admit = c
}

// classifyRoute maps a mux route pattern to its admission class. Patterns
// come from the mux registrations (bounded set), never from client input.
// The ladder: pedigree renders (the expensive graph walks) shed first,
// ingest next, searches last; everything operational — metrics, health,
// status, feedback, debug — is exempt.
func classifyRoute(route string) admission.Class {
	switch route {
	case "/api/search", "/{$}", "/api/explain":
		return admission.Search
	case "/api/pedigree", "/api/pedigree.dot", "/api/pedigree.ged", "/pedigree":
		return admission.Pedigree
	case "/api/ingest":
		return admission.Ingest
	}
	return admission.Exempt
}

// retryAfterSeconds renders a Retry-After hint as the whole seconds the
// header requires, rounding up and never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed writes the 429 response for a rejected request and records the
// decision on the request span, so harness-induced degradation is
// verifiable from the shed counters and from /api/debug/traces alike.
func shed(w http.ResponseWriter, d admission.Decision) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(d.RetryAfter)))
	http.Error(w, "overloaded: "+d.Reason, http.StatusTooManyRequests)
}
