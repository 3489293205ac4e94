package server

import (
	"net/http"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/obs"
)

// HealthResponse is the readiness snapshot of GET /healthz: the served
// generation, the ingest backlog the admission thresholds watch, and the
// current shed state. Status is "ok" with HTTP 200, or "overloaded" with
// HTTP 503 while any class is being shed or the backlog is over a bound —
// a fronting load balancer (or the load harness) polls it to detect
// overload and recovery.
type HealthResponse struct {
	Status         string `json:"status"`
	Generation     uint64 `json:"generation"`
	JournalBytes   int64  `json:"journal_bytes,omitempty"`
	BacklogRecords int    `json:"backlog_records"`
	BacklogBytes   int64  `json:"backlog_bytes"`
	// Shards reports the per-shard backlog split of the serving tier
	// (absent without a pipeline), so a load balancer sees the hot shard,
	// not just the global average it can hide behind.
	Shards   []ingest.ShardBacklog `json:"shards,omitempty"`
	Inflight int64                 `json:"inflight_weighted"`
	Shedding []string              `json:"shedding,omitempty"`
	// SLO reports the rolling error- and latency-budget burn rates over the
	// 1m and 5m windows (EnableSLO). A burn of 1.0 spends the budget at
	// exactly the sustainable rate; when BOTH windows burn above the
	// page-now threshold (14.4) on the same budget, Status degrades to
	// "burning" — the multi-window rule that reacts to a real spike within
	// a minute without flapping on a single slow request.
	SLO []obs.Burn `json:"slo,omitempty"`
}

// burnThreshold is the classic multi-window page-now burn rate: spending a
// 30-day budget in under 2 days.
const burnThreshold = 14.4

// EnableSLO attaches an SLO tracker: ServeHTTP feeds it every response and
// /healthz reports the rolling 1m/5m error- and latency-budget burn rates.
func (s *Server) EnableSLO(t *obs.SLOTracker) {
	s.slo = t
}

// EnableHealth mounts GET /healthz. Both arguments are optional: without a
// pipeline the generation comes from the served coordinator and the backlog
// reads zero; without admission the endpoint always reports "ok". The
// route is admission-exempt — health must answer precisely when the server
// is refusing work.
func (s *Server) EnableHealth(pipe *ingest.Pipeline) {
	s.handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		resp := HealthResponse{Status: "ok"}
		if pipe != nil {
			st := pipe.Status()
			resp.Generation = st.Generation
			resp.JournalBytes = st.JournalBytes
			resp.BacklogRecords, resp.BacklogBytes = pipe.Backlog()
			resp.Shards = st.ShardBacklog
		} else {
			resp.Generation = s.Coordinator().Generation()
		}
		if c := s.admit; c != nil {
			resp.Inflight = c.Inflight()
			for cl := admission.Search; cl < admission.NumClasses; cl++ {
				if c.Shedding(cl) {
					resp.Shedding = append(resp.Shedding, cl.String())
				}
			}
			if c.Overloaded() {
				resp.Status = "overloaded"
			}
		}
		if s.slo != nil {
			resp.SLO = s.slo.Windows()
			if len(resp.SLO) == 2 && resp.Status == "ok" {
				short, long := resp.SLO[0], resp.SLO[1]
				errorBurning := short.ErrorBurn > burnThreshold && long.ErrorBurn > burnThreshold
				latencyBurning := short.LatencyBurn > burnThreshold && long.LatencyBurn > burnThreshold
				if errorBurning || latencyBurning {
					resp.Status = "burning"
				}
			}
		}
		status := http.StatusOK
		if resp.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		writeJSONStatus(w, status, resp)
	})
}
