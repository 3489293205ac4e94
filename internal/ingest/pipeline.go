package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/geo"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/shard"
	"github.com/snaps/snaps/internal/store"
	"github.com/snaps/snaps/internal/vitalio"
)

// Pipeline metrics in the default registry, exposed at GET /metrics.
var (
	mAccepted = obs.Default.Counter("snaps_ingest_accepted_total",
		"Certificates accepted (validated and journalled) by the ingest pipeline.")
	mApplied = obs.Default.Counter("snaps_ingest_applied_total",
		"Certificates folded into a published serving generation.")
	mFlushes = obs.Default.Counter("snaps_ingest_flushes_total",
		"Completed batch flushes (incremental re-resolution + index rebuild).")
	mSwaps = obs.Default.Counter("snaps_ingest_snapshot_swaps_total",
		"Serving-bundle pointer swaps publishing a new generation.")
	mQueueDepth = obs.Default.Gauge("snaps_ingest_queue_depth",
		"Accepted certificates waiting for the next batch flush.")
	mBacklogBytes = obs.Default.Gauge("snaps_ingest_backlog_bytes",
		"Encoded bytes of accepted certificates waiting for the next batch flush. Admission backpressure bounds this.")
	mFlushSeconds = obs.Default.Histogram("snaps_ingest_flush_seconds",
		"Wall-clock duration of one batch flush.", obs.DefBuckets)
	mResolvedRecords = obs.Default.Counter("snaps_ingest_resolved_records_total",
		"Records re-resolved incrementally by er.Extend during flushes.")
	mCandidatePairs = obs.Default.Counter("snaps_ingest_candidate_pairs_total",
		"Candidate record pairs re-examined by er.Extend during flushes.")
)

// Serving bundles everything the online component answers queries from:
// the data set, its resolved entity store, the pedigree graph, and the
// shard coordinator that owns the per-shard indexes and engines and the
// result cache over that (global) graph. A bundle is immutable once
// published — rebuilds produce a fresh bundle over a cloned data set and publish it
// with an atomic pointer swap, so concurrent readers always see a
// consistent generation.
type Serving struct {
	Dataset *model.Dataset
	Store   *er.EntityStore
	Graph   *pedigree.Graph
	// Shards answers searches by scatter-gather (a direct engine call at
	// one shard); flushes advance it per partition.
	Shards *shard.Coordinator
	// Generation counts published snapshots, starting at 0 for the
	// initial bundle and incrementing on every flush.
	Generation uint64
}

// NewServing builds the initial serving bundle from a resolved data set,
// partitioned into the given number of serving shards. The graph and entity
// resolution stay global; the indexes and engines are per-shard, and the
// coordinator's one result cache is sized and configured from
// cfg.QueryCache and cfg.StaleServe.
func NewServing(d *model.Dataset, st *er.EntityStore, shards int, cfg Config) *Serving {
	cfg = cfg.withDefaults()
	g := pedigree.Build(d, st)
	return &Serving{Dataset: d, Store: st, Graph: g,
		Shards: shard.Partition(g, shard.Options{
			Shards:       shards,
			SimThreshold: index.SimThreshold,
			CacheEntries: cfg.QueryCache,
			StaleServe:   cfg.StaleServe,
		})}
}

// Config tunes the ingestion pipeline.
type Config struct {
	// BatchSize flushes the pending batch when it reaches this many
	// certificates (default 16).
	BatchSize int
	// MaxAge flushes a non-empty batch once its oldest certificate has
	// waited this long (default 2s).
	MaxAge time.Duration
	// QueryCache is the capacity, in merged rankings, of the
	// generation-keyed result cache NewServing gives the coordinator; 0
	// disables caching.
	QueryCache int
	// StaleServe enables stale-while-revalidate on that cache: after a
	// snapshot swap, entries of the immediately superseded generation keep
	// answering (at most one flush old, re-anchored to the new graph's
	// entities) while background singleflight refreshes recompute them
	// under the new generation — instead of every hot query stampeding
	// into a synchronous recompute the moment the generation bumps. No
	// effect when QueryCache is 0.
	StaleServe bool
	// Graph and Resolver configure the incremental er.Extend pass.
	Graph    depgraph.Config
	Resolver er.Config
	// Tracer, when set, records one trace per batch flush (journal apply,
	// cluster restore, er.Extend, index rebuild, snapshot swap as child
	// spans) and parents journal-append spans under request traces passed
	// to SubmitContext. Nil disables tracing.
	Tracer *obs.Tracer
}

// DefaultQueryCache is the result-cache budget cmd/snaps and cmd/snapsload
// serve with by default; DefaultConfig leaves the cache off.
const DefaultQueryCache = 4096

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		BatchSize:  16,
		MaxAge:     2 * time.Second,
		StaleServe: true,
		Graph:      depgraph.DefaultConfig(),
		Resolver:   er.DefaultConfig(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.MaxAge <= 0 {
		c.MaxAge = d.MaxAge
	}
	return c
}

// Status is the snapshot returned by GET /api/ingest/status.
type Status struct {
	// Pending is the number of accepted certificates not yet resolved;
	// PendingBytes is their encoded size — the unflushed backlog that
	// admission backpressure bounds.
	Pending      int   `json:"pending"`
	PendingBytes int64 `json:"pending_bytes"`
	// Accepted and Applied count certificates over the pipeline's lifetime.
	Accepted int `json:"accepted"`
	Applied  int `json:"applied"`
	// Flushes counts completed batch rebuilds; LastFlushMillis is the wall
	// time of the most recent one (journal replay included), and
	// LastFlushAt the wall-clock instant it completed (zero before the
	// first flush).
	Flushes         int       `json:"flushes"`
	LastFlushMillis int64     `json:"last_flush_millis"`
	LastFlushAt     time.Time `json:"last_flush_at"`
	// Records and Entities describe the currently served generation;
	// Generation is its snapshot counter (0 = the initial bundle).
	Records    int    `json:"records"`
	Entities   int    `json:"entities"`
	Generation uint64 `json:"generation"`
	// JournalPath, JournalEntries, and JournalBytes describe the WAL
	// ("" / 0 when disabled).
	JournalPath    string `json:"journal_path,omitempty"`
	JournalEntries int    `json:"journal_entries,omitempty"`
	JournalBytes   int64  `json:"journal_bytes,omitempty"`
	// Shards and ShardBacklog describe the serving tier: the partition
	// count and the per-shard unflushed backlog. The per-shard breakdown
	// is what keeps one hot shard from hiding behind the global average.
	Shards       int            `json:"shards,omitempty"`
	ShardBacklog []ShardBacklog `json:"shard_backlog,omitempty"`
	// LastError reports the most recent rebuild failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// ShardBacklog is one shard's share of the unflushed ingest backlog.
type ShardBacklog struct {
	Shard        int   `json:"shard"`
	Pending      int   `json:"pending"`
	PendingBytes int64 `json:"pending_bytes"`
}

// Pipeline accepts certificates, journals them, and folds them into the
// serving bundle in batches on a background worker. The serving side is
// wait-free: Serving() is a single atomic load.
type Pipeline struct {
	cfg     Config
	journal *Journal // nil when journalling is disabled

	serving atomic.Pointer[Serving]

	mu           sync.Mutex
	pending      []Certificate
	pendingBytes int64 // encoded size of pending, the backpressure signal
	// shardPending splits the backlog by destination shard (len = shard
	// count). Routed at Submit via RouteCert, zeroed when a flush drains
	// the batch.
	shardPending []shardPending
	oldestAt     time.Time
	accepted     int
	applied      int
	flushes      int
	lastDur      time.Duration
	lastAt       time.Time
	lastErr      string
	swapFns      []func(*Serving)

	// buildMu serialises flushes: the serving bundle is published only
	// under it, so the published bundle's data set and store are the ones
	// the next generation grows from, and its Generation is the counter a
	// flush advances.
	buildMu sync.Mutex

	// shardGauges are the pre-created per-shard backlog series.
	shardGauges []shardBacklogGauges
	// gazetteer geocodes the records a flush appends; nil when no served
	// record carries coordinates.
	gazetteer *geo.Gazetteer

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// shardPending is one shard's unflushed backlog share, guarded by p.mu.
type shardPending struct {
	records int
	bytes   int64
}

// shardBacklogGauges are one shard's backlog metric series.
type shardBacklogGauges struct {
	records *obs.Gauge
	bytes   *obs.Gauge
}

func backlogGaugesFor(s int) shardBacklogGauges {
	l := obs.Label("shard", fmt.Sprintf("%d", s))
	return shardBacklogGauges{
		records: obs.Default.Gauge("snaps_shard_backlog_records{"+l+"}",
			"Accepted certificates routed to the shard, waiting for the next flush."),
		bytes: obs.Default.Gauge("snaps_shard_backlog_bytes{"+l+"}",
			"Encoded bytes of the shard's unflushed backlog."),
	}
}

// RouteCert returns the shard an accepted certificate's backlog is
// accounted to: the route of its principal person's normalised name key
// (the baby, the deceased, the groom — the first principal role present in
// model.Role order). The normalisation matches Apply, so the certificate's
// principal record lands on a node this key routes to unless resolution
// merges it into an entity anchored elsewhere — good enough for backlog
// accounting, which only needs a stable, deterministic assignment.
func RouteCert(c *Certificate, shards int) int {
	if shards <= 1 {
		return 0
	}
	if t, err := c.certType(); err == nil {
		principals, _ := vitalio.Principals(t)
		for _, r := range principals {
			if p, ok := rolePerson(c.Roles, r); ok {
				return shard.Route(vitalio.Norm(p.FirstName), vitalio.Norm(p.Surname), shards)
			}
		}
	}
	// Unvalidated or principal-less certificate: fall back to the first
	// role present in the fixed model.Role order.
	for role := model.Role(0); role < model.NumRoles; role++ {
		if p, ok := rolePerson(c.Roles, role); ok {
			return shard.Route(vitalio.Norm(p.FirstName), vitalio.Norm(p.Surname), shards)
		}
	}
	return 0
}

// NewPipeline starts a pipeline over an initial serving bundle. The
// pipeline takes ownership of the bundle's data set and entity store: the
// caller must not mutate them afterwards. backlog holds journal entries
// replayed by OpenJournal; they are applied synchronously (as one batch)
// before NewPipeline returns, so the served generation reflects every
// certificate accepted before the last shutdown.
func NewPipeline(sv *Serving, jr *Journal, backlog []Certificate, cfg Config) (*Pipeline, error) {
	n := sv.Shards.NumShards()
	p := &Pipeline{
		cfg:          cfg.withDefaults(),
		journal:      jr,
		shardPending: make([]shardPending, n),
		shardGauges:  make([]shardBacklogGauges, n),
		kick:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for s := range p.shardGauges {
		p.shardGauges[s] = backlogGaugesFor(s)
	}
	// Ingested addresses compare as the build's did: by coordinates, from
	// the gazetteer cmd/snaps geocodes CSV imports with, when the build
	// geocoded any record.
	for i := range sv.Dataset.Records {
		if r := &sv.Dataset.Records[i]; r.Lat != 0 || r.Lon != 0 {
			p.gazetteer = geo.Skye()
			break
		}
	}
	// The pipeline owns the bundle: stamp it as generation 0.
	sv.Generation = 0
	p.serving.Store(sv)
	if len(backlog) > 0 {
		p.mu.Lock()
		p.pending = append(p.pending, backlog...)
		p.accepted += len(backlog)
		for i := range backlog {
			p.accountShardLocked(&backlog[i], 0)
		}
		p.mu.Unlock()
		if err := p.Flush(); err != nil {
			return nil, fmt.Errorf("ingest: replaying journal: %w", err)
		}
	}
	go p.run()
	return p, nil
}

// accountShardLocked adds one accepted certificate to its shard's backlog
// share. Caller holds p.mu.
func (p *Pipeline) accountShardLocked(c *Certificate, bytes int64) {
	s := RouteCert(c, len(p.shardPending))
	p.shardPending[s].records++
	p.shardPending[s].bytes += bytes
	p.shardGauges[s].records.Set(int64(p.shardPending[s].records))
	p.shardGauges[s].bytes.Set(p.shardPending[s].bytes)
}

// clearShardPendingLocked zeroes the per-shard backlog split after a flush
// drains the batch. Caller holds p.mu.
func (p *Pipeline) clearShardPendingLocked() {
	for s := range p.shardPending {
		p.shardPending[s] = shardPending{}
		p.shardGauges[s].records.Set(0)
		p.shardGauges[s].bytes.Set(0)
	}
}

// Serving returns the current immutable serving bundle.
func (p *Pipeline) Serving() *Serving { return p.serving.Load() }

// OnSwap registers a callback invoked (from the worker goroutine) after
// each new generation is published. Used by the HTTP server to retarget
// its coordinator pointer.
func (p *Pipeline) OnSwap(fn func(*Serving)) {
	p.mu.Lock()
	p.swapFns = append(p.swapFns, fn)
	p.mu.Unlock()
}

// Submit validates, journals, and enqueues one certificate. It returns
// once the certificate is durable (journalled) and scheduled; resolution
// happens asynchronously within one batch flush.
func (p *Pipeline) Submit(c *Certificate) error {
	return p.SubmitContext(context.Background(), c)
}

// SubmitContext is Submit under the caller's trace: the durable journal
// append — the only blocking I/O on the submission path — records a child
// span when the context carries one, so slow fsyncs show up attributed in
// request traces.
func (p *Pipeline) SubmitContext(ctx context.Context, c *Certificate) error {
	if err := c.Validate(); err != nil {
		return err
	}
	// Size the certificate once for the backlog-bytes signal admission
	// backpressure watches; the journal encodes identically.
	enc, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("ingest: encoding certificate: %w", err)
	}
	if p.journal != nil {
		_, jsp := obs.StartSpan(ctx, "journal.append")
		err := p.journal.Append(c)
		jsp.End()
		if err != nil {
			return fmt.Errorf("ingest: journalling certificate: %w", err)
		}
	}
	p.mu.Lock()
	if len(p.pending) == 0 {
		p.oldestAt = time.Now()
	}
	p.pending = append(p.pending, *c)
	p.pendingBytes += int64(len(enc)) + 1 // +1 for the journal's newline
	p.accountShardLocked(c, int64(len(enc))+1)
	p.accepted++
	full := len(p.pending) >= p.cfg.BatchSize
	mAccepted.Inc()
	mQueueDepth.Set(int64(len(p.pending)))
	mBacklogBytes.Set(p.pendingBytes)
	p.mu.Unlock()
	if full {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Flush synchronously applies every pending certificate and publishes the
// resulting generation. It is safe to call concurrently with Submit and
// with the background worker.
func (p *Pipeline) Flush() error {
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	return p.flushLocked()
}

// Pending reports the number of accepted, not yet applied certificates.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Backlog reports the unflushed backlog: accepted certificates (and their
// encoded bytes) waiting for the next batch flush. This is the one source
// of truth admission backpressure, the obs gauges, and /healthz all read —
// once it passes the configured bounds, new submissions are shed with 429
// instead of growing the queue without limit.
func (p *Pipeline) Backlog() (records int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending), p.pendingBytes
}

// ShardBacklog reports the unflushed backlog split by destination shard.
func (p *Pipeline) ShardBacklog() []ShardBacklog {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ShardBacklog, len(p.shardPending))
	for s := range out {
		out[s] = ShardBacklog{Shard: s,
			Pending: p.shardPending[s].records, PendingBytes: p.shardPending[s].bytes}
	}
	return out
}

// HottestShardBacklog reports the shard with the largest unflushed record
// backlog (ties to the lowest shard id) — the signal per-shard admission
// backpressure watches, so one hot shard cannot hide behind the global
// average.
func (p *Pipeline) HottestShardBacklog() (shardID, records int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	records, bytes = p.shardPending[0].records, p.shardPending[0].bytes
	for s := 1; s < len(p.shardPending); s++ {
		if p.shardPending[s].records > records ||
			(p.shardPending[s].records == records && p.shardPending[s].bytes > bytes) {
			shardID, records, bytes = s, p.shardPending[s].records, p.shardPending[s].bytes
		}
	}
	return shardID, records, bytes
}

// Status returns a snapshot of the pipeline's counters and the served
// generation's size.
func (p *Pipeline) Status() Status {
	sv := p.Serving()
	p.mu.Lock()
	st := Status{
		Pending:         len(p.pending),
		PendingBytes:    p.pendingBytes,
		Accepted:        p.accepted,
		Applied:         p.applied,
		Flushes:         p.flushes,
		LastFlushMillis: p.lastDur.Milliseconds(),
		LastFlushAt:     p.lastAt,
		LastError:       p.lastErr,
	}
	p.mu.Unlock()
	st.Records = len(sv.Dataset.Records)
	st.Entities = len(sv.Graph.Nodes)
	st.Generation = sv.Generation
	st.ShardBacklog = p.ShardBacklog()
	st.Shards = len(st.ShardBacklog)
	if p.journal != nil {
		st.JournalPath = p.journal.Path()
		st.JournalEntries = p.journal.Len()
		st.JournalBytes = p.journal.Size()
	}
	return st
}

// Close stops the worker, applies any remaining batch, and closes the
// journal.
func (p *Pipeline) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	err := p.Flush()
	if p.journal != nil {
		if cerr := p.journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// run is the background worker: it flushes when a batch fills (kick) or
// when the oldest pending certificate exceeds MaxAge.
func (p *Pipeline) run() {
	defer close(p.done)
	tick := time.NewTicker(p.tickInterval())
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			p.Flush()
		case <-tick.C:
			p.mu.Lock()
			due := len(p.pending) > 0 && time.Since(p.oldestAt) >= p.cfg.MaxAge
			p.mu.Unlock()
			if due {
				p.Flush()
			}
		}
	}
}

// tickInterval samples the age check a few times per MaxAge window.
func (p *Pipeline) tickInterval() time.Duration {
	iv := p.cfg.MaxAge / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

// flushLocked rebuilds the serving bundle from the pending batch. Caller
// holds buildMu. The rebuild never touches the published generation: it
// clones the data set, restores the clustering over the clone, extends it
// with the new records, and rebuilds graph and indexes before the single
// atomic swap.
func (p *Pipeline) flushLocked() error {
	p.mu.Lock()
	batch := p.pending
	p.pending = nil
	p.pendingBytes = 0
	p.clearShardPendingLocked()
	mQueueDepth.Set(0)
	mBacklogBytes.Set(0)
	p.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	start := time.Now()
	ctx, root := p.cfg.Tracer.StartRoot(context.Background(), "ingest.flush", "")
	root.SetAttr("batch", int64(len(batch)))

	stageT := time.Now()
	stageDone := func(stage string) {
		now := time.Now()
		obs.Default.Histogram("snaps_ingest_flush_stage_seconds{"+obs.Label("stage", stage)+"}",
			"Duration of one flush pipeline stage (apply_batch, restore_clusters, er_extend, rebuild_indexes, snapshot_swap).",
			obs.LatencyBuckets).ObserveDuration(now.Sub(stageT))
		stageT = now
	}

	prev := p.serving.Load()
	_, asp := obs.StartSpan(ctx, "apply_batch")
	newD := prev.Dataset.Clone()
	firstNew := model.RecordID(len(newD.Records))
	for i := range batch {
		if _, err := Apply(newD, &batch[i]); err != nil {
			// Validate ran at Submit (and during journal replay), so this
			// is unreachable short of a bug; surface it rather than panic.
			p.mu.Lock()
			p.lastErr = err.Error()
			p.mu.Unlock()
			asp.End()
			root.End()
			return err
		}
	}
	if p.gazetteer != nil {
		geo.GeocodeRecords(newD.Records[firstNew:], p.gazetteer)
	}
	asp.End()
	stageDone("apply_batch")

	// Restore the previous clustering over the cloned data set as cliques
	// (the persistence semantics of internal/store), then fold the new
	// records in incrementally.
	_, csp := obs.StartSpan(ctx, "restore_clusters")
	snap := store.Snapshot{Dataset: newD, Clusters: prev.Store.Clusters()}
	newStore := snap.Restore()
	csp.End()
	stageDone("restore_clusters")

	ectx, esp := obs.StartSpan(ctx, "er.extend")
	epr := er.ExtendContext(ectx, newD, newStore, firstNew, p.cfg.Graph, p.cfg.Resolver)
	esp.SetAttr("candidate_pairs", int64(epr.Candidates))
	esp.End()
	stageDone("er_extend")

	// Rebuild the pedigree graph, then advance the still-serving
	// coordinator: every shard gets a fresh K and the served S carried
	// across the value diff without locking it (index.UpdateSubset, which
	// rebuilds a name field's block instead when too many of its values are
	// new), and the result cache is invalidated against gen.
	_, isp := obs.StartSpan(ctx, "rebuild_indexes")
	newG := pedigree.Build(newD, newStore)
	gen := prev.Generation + 1
	coord, ast := prev.Shards.Advance(newG, gen)
	isp.SetAttr("shards", int64(ast.Touched))
	isp.SetAttr("blocks_rebuilt", int64(ast.Rebuilt))
	isp.End()
	stageDone("rebuild_indexes")

	_, wsp := obs.StartSpan(ctx, "snapshot_swap")
	sv := &Serving{Dataset: newD, Store: newStore, Graph: newG, Shards: coord, Generation: gen}
	p.serving.Store(sv)

	mApplied.Add(int64(len(batch)))
	mFlushes.Inc()
	mSwaps.Inc()
	mFlushSeconds.ObserveDuration(time.Since(start))
	mResolvedRecords.Add(int64(len(newD.Records)) - int64(firstNew))
	mCandidatePairs.Add(int64(epr.Candidates))

	p.mu.Lock()
	p.applied += len(batch)
	p.flushes++
	p.lastDur = time.Since(start)
	p.lastAt = time.Now()
	p.lastErr = ""
	fns := append([]func(*Serving){}, p.swapFns...)
	p.mu.Unlock()
	for _, fn := range fns {
		fn(sv)
	}
	wsp.End()
	stageDone("snapshot_swap")
	root.End()

	slog.LogAttrs(ctx, slog.LevelDebug, "ingest flush published",
		slog.Int("batch", len(batch)),
		slog.Int("records", len(newD.Records)),
		slog.Int("entities", len(sv.Graph.Nodes)),
		slog.Int("candidate_pairs", epr.Candidates),
		slog.Int("shards", ast.Touched),
		slog.Int("blocks_rebuilt", ast.Rebuilt),
		slog.Duration("took", time.Since(start)),
	)
	return nil
}
