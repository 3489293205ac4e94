package server

import (
	"net/http"
	"strconv"
	"sync"

	"github.com/snaps/snaps/internal/feedback"
	"github.com/snaps/snaps/internal/model"
)

// FeedbackHandler exposes the expert-feedback journal over HTTP:
//
//	POST /api/feedback?a=<record>&b=<record>&decision=confirm|reject
//	GET  /api/feedback            — journal summary and open violations
//
// Decisions POSTed here live only in memory: they are never applied to the
// served entities and never saved. Only `snaps -feedback <csv>` applies
// decisions, at build time.
type FeedbackHandler struct {
	mu      sync.Mutex
	journal *feedback.Journal
	srv     *Server
}

// EnableFeedback mounts the feedback endpoints on the server and returns
// the handler for journal access.
func (s *Server) EnableFeedback() *FeedbackHandler {
	h := &FeedbackHandler{journal: feedback.NewJournal(), srv: s}
	s.handle("/api/feedback", h.handle)
	return h
}

// Journal returns the underlying journal; callers must not mutate it
// concurrently with request handling.
func (h *FeedbackHandler) Journal() *feedback.Journal { return h.journal }

// feedbackStatus is the GET response.
type feedbackStatus struct {
	Decisions  int `json:"decisions"`
	MustLink   int `json:"must_link"`
	CannotLink int `json:"cannot_link"`
}

// handle keeps its critical sections narrow: the mutex guards journal
// access only, never request parsing or response encoding to the client (a
// slow reader must not serialise every other feedback request).
func (h *FeedbackHandler) handle(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		h.mu.Lock()
		st := feedbackStatus{
			Decisions:  h.journal.Len(),
			MustLink:   len(h.journal.MustLinks()),
			CannotLink: len(h.journal.CannotLinks()),
		}
		h.mu.Unlock()
		writeJSON(w, st)
	case http.MethodPost:
		a, err1 := strconv.Atoi(r.FormValue("a"))
		b, err2 := strconv.Atoi(r.FormValue("b"))
		n := len(h.srv.Graph().Dataset.Records)
		if err1 != nil || err2 != nil || a < 0 || b < 0 || a >= n || b >= n || a == b {
			http.Error(w, "invalid record ids", http.StatusBadRequest)
			return
		}
		var d feedback.Decision
		switch r.FormValue("decision") {
		case "confirm":
			d = feedback.Confirm
		case "reject":
			d = feedback.Reject
		default:
			http.Error(w, "decision must be confirm or reject", http.StatusBadRequest)
			return
		}
		h.mu.Lock()
		h.journal.Record(model.RecordID(a), model.RecordID(b), d)
		h.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// StatsResponse summarises the served data set for GET /api/stats.
type StatsResponse struct {
	Dataset      string `json:"dataset"`
	Records      int    `json:"records"`
	Certificates int    `json:"certificates"`
	Entities     int    `json:"entities"`
	Births       int    `json:"births"`
	Deaths       int    `json:"deaths"`
	Marriages    int    `json:"marriages"`
	Censuses     int    `json:"censuses"`
}

// EnableStats mounts GET /api/stats.
func (s *Server) EnableStats() {
	s.handle("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		g := s.Graph()
		d := g.Dataset
		resp := StatsResponse{
			Dataset:      d.Name,
			Records:      len(d.Records),
			Certificates: len(d.Certificates),
			Entities:     len(g.Nodes),
		}
		for i := range d.Certificates {
			switch d.Certificates[i].Type {
			case model.Birth:
				resp.Births++
			case model.Death:
				resp.Deaths++
			case model.Marriage:
				resp.Marriages++
			case model.Census:
				resp.Censuses++
			}
		}
		writeJSON(w, resp)
	})
}
