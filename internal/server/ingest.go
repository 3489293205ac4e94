package server

import (
	"encoding/json"
	"net/http"

	"github.com/snaps/snaps/internal/ingest"
)

// EnableIngest mounts the live-ingestion endpoints:
//
//	POST /api/ingest        — submit one certificate (JSON body); 202 once
//	                          journalled. ?sync=1 additionally waits for the
//	                          batch flush, so the response reflects the new
//	                          generation.
//	GET  /api/ingest/status — pipeline counters and served generation size.
//
// The server's coordinator is retargeted on every snapshot swap, so queries
// pick up ingested certificates within one batch flush without any restart
// or request blocking.
func (s *Server) EnableIngest(p *ingest.Pipeline) {
	p.OnSwap(func(sv *ingest.Serving) { s.SetCoordinator(sv.Shards) })
	// Converge on the pipeline's current generation in case it replayed a
	// journal backlog before the callback was registered.
	s.SetCoordinator(p.Serving().Shards)

	s.handle("/api/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var c ingest.Certificate
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&c); err != nil {
			http.Error(w, "bad certificate JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := p.SubmitContext(r.Context(), &c); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		status := http.StatusAccepted
		if r.URL.Query().Get("sync") != "" {
			if err := p.Flush(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			status = http.StatusOK
		}
		writeJSONStatus(w, status, p.Status())
	})

	s.handle("/api/ingest/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, p.Status())
	})
}
