package er

import (
	"context"
	"runtime"
	"time"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
)

// PipelineResult bundles everything the offline component of SNAPS
// produces: the dependency graph, the resolved entities, and per-phase
// timings (the rows of Tables 5 and 6).
//
// Blocking, GenAtomic, GenRelational and Resolve are wall-clock times of
// parts of the run that do not overlap. Result.Timings splits the
// resolution into bootstrap, merge and refine, each summed over the
// components Resolve resolves: wall clock when they run one after another
// (GOMAXPROCS 1), CPU time that may add up to more than Resolve when they
// run concurrently.
type PipelineResult struct {
	Graph  *depgraph.Graph
	Result *Result

	Blocking      time.Duration
	GenAtomic     time.Duration
	GenRelational time.Duration
	// Resolve is the wall-clock time of the resolution, from the resolver's
	// set-up to its last refinement.
	Resolve    time.Duration
	Candidates int
}

// Total returns the wall-clock time of the offline run: blocking, graph
// construction and resolution.
func (p *PipelineResult) Total() time.Duration {
	return p.Blocking + p.GenAtomic + p.GenRelational + p.Resolve
}

// Run executes the complete offline pipeline: LSH blocking, dependency-
// graph construction, and the SNAPS bootstrapping/merging/refinement
// process.
func Run(d *model.Dataset, gcfg depgraph.Config, cfg Config) *PipelineResult {
	return run(context.Background(), d, blocking.DefaultLSHConfig(), gcfg, cfg, nil, 0)
}

// RunLSH is Run under an explicit blocking profile. The DS-scale bench
// tiers pass blocking.ScaleLSHConfig(), whose tighter admission keeps
// candidate growth linear in the corpus; parish-scale callers should stay
// on Run.
func RunLSH(d *model.Dataset, lcfg blocking.LSHConfig, gcfg depgraph.Config, cfg Config) *PipelineResult {
	return run(context.Background(), d, lcfg, gcfg, cfg, nil, 0)
}

// Extend incrementally resolves newly appended records against an existing
// clustering: the data set must already contain the new records (ids at or
// after firstNew), and store holds the clusters of the earlier resolution.
// Only candidate pairs touching a new record are graphed and merged;
// existing clusters participate through PROP-A value propagation and PROP-C
// constraints but their internal links are never revisited. store's
// clusters are expected as store.Snapshot.Restore leaves them, cliques,
// which REF never changes: the partitioned resolver passes a cluster no new
// record reaches through without refining it.
//
// This is the growth path for a live deployment: new registration quarters
// arrive, Extend folds them in, and the pedigree graph and indexes are
// rebuilt from the updated store.
func Extend(d *model.Dataset, store *EntityStore, firstNew model.RecordID, gcfg depgraph.Config, cfg Config) *PipelineResult {
	return ExtendContext(context.Background(), d, store, firstNew, gcfg, cfg)
}

// ExtendContext is Extend under the caller's trace (the ingest pipeline's
// flush trace): see run for the child spans it records.
func ExtendContext(ctx context.Context, d *model.Dataset, store *EntityStore, firstNew model.RecordID, gcfg depgraph.Config, cfg Config) *PipelineResult {
	return run(ctx, d, blocking.DefaultLSHConfig(), gcfg, cfg, store, firstNew)
}

// run is the offline pipeline, full build and incremental extension alike:
// block, score the candidates into G_D, resolve. Blocking signs every record
// but emits only the pairs whose B is at or after firstNew — new records are
// a suffix of the id space, so those are the pairs touching one, and a full
// build passes 0 — and builds only the blocks that hold such a record. With
// a prior store the resolver starts from prior's clusters instead of from
// singletons.
//
// Blocking streams into graph construction: candidate chunks are scored
// and interned as they are emitted, so the full candidate slice (and the
// per-candidate similarity slabs) never materialise. The chunked emitter
// preserves the serial first-occurrence pair order and BuildStream is
// chunk-size-invariant, so the graph — and everything downstream — is
// byte-identical to a build from the materialised, filtered candidate list.
// Blocking time is accounted as the producer-side wall clock minus the time
// spent inside the scoring consumer.
//
// When ctx carries a span, the streamed block+score build records the
// child span er.graph (attrs candidate_pairs, new_records, blocking_us) and
// resolution records er.resolve (attr merged_nodes).
func run(ctx context.Context, d *model.Dataset, lcfg blocking.LSHConfig, gcfg depgraph.Config, cfg Config, prior *EntityStore, firstNew model.RecordID) *PipelineResult {
	lsh := blocking.NewLSH(lcfg)
	_, gsp := obs.StartSpan(ctx, "er.graph")
	var prodTotal, inConsumer time.Duration
	g, stats := depgraph.BuildStream(d, gcfg, func(emit func(chunk []blocking.Candidate)) {
		t0 := time.Now()
		lsh.PairsChunkedFrom(d, d.RecordIDs(), int(firstNew), func(chunk []blocking.Candidate) {
			tc := time.Now()
			emit(chunk)
			inConsumer += time.Since(tc)
		})
		prodTotal = time.Since(t0)
	})
	blockTime := prodTotal - inConsumer
	gsp.SetAttr("candidate_pairs", int64(stats.Candidates))
	gsp.SetAttr("new_records", int64(len(d.Records))-int64(firstNew))
	gsp.SetAttr("blocking_us", blockTime.Microseconds())
	gsp.End()
	obs.ObserveStage("blocking", blockTime)
	obs.ObserveStage("graph_atomic", stats.GenAtomic)
	obs.ObserveStage("graph_relational", stats.GenRelational)
	// DS-scale builds re-base GC pacing before resolution: the resolver's
	// first allocations otherwise ride a trigger inflated by build-phase
	// garbage, and the whole run's heap peak lands there. Gated like the
	// BuildStream boundary collection so parish-scale runs, tests and
	// incremental flushes skip it.
	if stats.Candidates >= depgraph.GCRebaseMinCandidates {
		runtime.GC()
	}

	_, rsp := obs.StartSpan(ctx, "er.resolve")
	tr := time.Now()
	r := NewResolver(g, cfg)
	if prior != nil {
		prior.Grow()
		r.store = prior
	}
	res := r.Resolve()
	resolveTime := time.Since(tr)
	rsp.SetAttr("merged_nodes", int64(res.MergedNodes))
	rsp.End()
	return &PipelineResult{
		Graph: g, Result: res,
		Blocking:      blockTime,
		GenAtomic:     stats.GenAtomic,
		GenRelational: stats.GenRelational,
		Resolve:       resolveTime,
		Candidates:    stats.Candidates,
	}
}
