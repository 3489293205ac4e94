package server

import (
	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/ingest"
)

// NewStack assembles the serving stack around a bundle: handlers, the
// ingest pipeline tracing into the server's ring buffer, admission control
// reading the pipeline's backlog, and /healthz. cmd/snaps -serve and
// cmd/snapsload's in-process target both call it, so the harness measures
// the server that ships. icfg is the configuration sv was built with; acfg
// carries the caller's budgets and bounds, the fields wired to the pipeline
// are set here. The controller is always installed: a bound of 0 turns off
// that bound alone, so MaxConcurrency 0 keeps the backlog bounds.
func NewStack(sv *ingest.Serving, journal *ingest.Journal, backlog []ingest.Certificate, icfg ingest.Config, acfg admission.Config) (*Server, error) {
	srv := NewSharded(sv.Shards)
	icfg.Tracer = srv.Tracer()
	pipe, err := ingest.NewPipeline(sv, journal, backlog, icfg)
	if err != nil {
		return nil, err
	}
	srv.EnableIngest(pipe)
	acfg.BacklogRetryAfter = icfg.MaxAge
	acfg.Backlog = pipe.Backlog
	acfg.ShardBacklog = pipe.HottestShardBacklog
	acfg.MaxShardBacklogRecords = admission.PerShardBound(acfg.MaxBacklogRecords, sv.Shards.NumShards())
	acfg.MaxShardBacklogBytes = admission.PerShardBound(acfg.MaxBacklogBytes, int64(sv.Shards.NumShards()))
	srv.EnableAdmission(admission.New(acfg))
	srv.EnableHealth(pipe)
	return srv, nil
}
