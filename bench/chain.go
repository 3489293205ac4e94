package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/server"
	"github.com/snaps/snaps/internal/shard"
	"github.com/snaps/snaps/internal/store"
)

type metrics map[string]float64

// runConfig is one process's share of a run.
type runConfig struct {
	w         workload
	seed      int64
	seconds   float64
	tierScale float64
	trace     bool
	dir       string // scratch directory for snapshot files
}

// stack is what the batch half leaves behind: the measurements so far and
// the live serving stack the load phases drive.
type stack struct {
	cfg  runConfig
	tr   *tracer
	m    metrics
	errs []string // correctness violations; any one fails the run

	hash        string // canonical hash of the built clusters
	baseRecords int    // records in the served data set before any ingest
	gcfg        depgraph.Config
	rcfg        er.Config

	// The build's results stay reachable so heap_live_mb counts them.
	buildD     *model.Dataset
	buildStore *er.EntityStore

	srv   *server.Server
	pipe  *ingest.Pipeline
	certs []ingest.Certificate // hold-out stream, in submission order
}

func (s *stack) fail(format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

// parentPairs are the role pairs F* is scored over: Bp-Bp and Bp-Dp.
var parentPairs = []model.RolePair{
	model.MakeRolePair(model.Bm, model.Bm),
	model.MakeRolePair(model.Bf, model.Bf),
	model.MakeRolePair(model.Bm, model.Dm),
	model.MakeRolePair(model.Bf, model.Df),
}

func generate(certs int, seed int64) *model.Dataset {
	cfg := dataset.ScaleTier(certs)
	cfg.Seed = seed
	return dataset.GenerateScale(cfg).Dataset
}

func scaled(certs int, scale float64) int {
	return int(math.Round(float64(certs) * scale))
}

// runBatch is the cold half of the chain: set-up, the timed ER build and,
// unless buildOnly, the timed cold start. It runs once per process because
// symbol, simcache and obs.Default are process-global: a second build in the
// same process would find their caches warm.
func runBatch(cfg runConfig, tr *tracer, buildOnly bool) (*stack, error) {
	s := &stack{cfg: cfg, tr: tr, m: metrics{}, gcfg: depgraph.DefaultConfig(), rcfg: er.DefaultConfig()}
	buildCerts, serveCerts := scaled(cfg.w.buildCerts, cfg.tierScale), scaled(cfg.w.serveCerts, cfg.tierScale)
	buildPath := filepath.Join(cfg.dir, "build.snaps")
	servePath := buildPath

	// Set-up: everything the timed steps need and do not time.
	t0 := time.Now()
	sp := tr.begin("setup", -1)
	gsp := tr.begin("dataset.generate", sp)
	s.buildD = generate(buildCerts, cfg.seed)
	serveD := s.buildD
	if serveCerts != buildCerts {
		serveD = generate(serveCerts, cfg.seed)
	}
	holdout := generate(holdoutCerts, cfg.seed+1)
	tr.end(gsp)
	s.m["dataset.gen_s"] = time.Since(t0).Seconds()
	s.m["dataset.records"] = float64(len(s.buildD.Records))
	s.certs = toCertificates(holdout)
	probe, ok := uniqueSurnameRecord(serveD)
	if !ok {
		return nil, fmt.Errorf("no record with a unique surname in %d certificates", serveCerts)
	}
	tr.end(sp)
	setup := time.Since(t0)

	if err := s.build(buildPath); err != nil {
		return nil, err
	}

	// The serve tier's own build is set-up too, but runs after the timed
	// build so that it does not warm simcache and the symbol table for it.
	savedHash := s.hash
	if serveD != s.buildD {
		t1 := time.Now()
		sp := tr.begin("setup.serve_tier", -1)
		servePath = filepath.Join(cfg.dir, "serve.snaps")
		snap := store.FromResult(serveD, er.RunLSH(serveD, blocking.ScaleLSHConfig(), s.gcfg, s.rcfg).Result.Store)
		if err := store.Save(servePath, snap); err != nil {
			return nil, err
		}
		savedHash = clusterHash(snap.Clusters)
		tr.end(sp)
		setup += time.Since(t1)
	}
	s.m["setup_s"] = setup.Seconds()
	if buildOnly {
		return s, nil
	}
	if err := s.coldStart(servePath, savedHash, probe); err != nil {
		return nil, err
	}
	if cfg.trace {
		s.directIndexBuild()
	}
	return s, nil
}

// build times certificates-in → snapshot-out and scores the clusters against
// the generator's truth.
func (s *stack) build(path string) error {
	d := s.buildD
	memoHits, memoMisses := counter("snaps_simkernel_memo_hits_total"), counter("snaps_simkernel_memo_misses_total")
	h0, m0 := memoHits.Value(), memoMisses.Value()

	t0 := time.Now()
	sp := s.tr.begin("build", -1)
	rsp := s.tr.begin("er.RunLSH", sp)
	pr := er.RunLSH(d, blocking.ScaleLSHConfig(), s.gcfg, s.rcfg)
	s.tr.end(rsp)
	tm := pr.Result.Timings
	s.tr.reported(rsp,
		[]string{"blocking", "depgraph.atomic", "depgraph.relational", "er.bootstrap", "er.merge", "er.refine"},
		[]time.Duration{pr.Blocking, pr.GenAtomic, pr.GenRelational, tm.Bootstrap, tm.Merge, tm.Refine})
	fsp := s.tr.begin("store.FromResult", sp)
	snap := store.FromResult(d, pr.Result.Store)
	s.tr.end(fsp)
	ssp := s.tr.begin("store.Save", sp)
	tSave := time.Now()
	err := store.Save(path, snap)
	s.m["store.save_s"] = time.Since(tSave).Seconds()
	s.tr.end(ssp)
	s.tr.end(sp)
	s.m["build_s"] = time.Since(t0).Seconds()
	if err != nil {
		return err
	}

	s.buildStore = pr.Result.Store
	s.m["blocking.s"] = pr.Blocking.Seconds()
	s.m["depgraph.atomic_s"] = pr.GenAtomic.Seconds()
	s.m["depgraph.relational_s"] = pr.GenRelational.Seconds()
	s.m["depgraph.nodes"] = float64(len(pr.Graph.Nodes))
	s.m["depgraph.groups"] = float64(len(pr.Graph.Groups))
	s.m["er.bootstrap_s"] = tm.Bootstrap.Seconds()
	s.m["er.merge_s"] = tm.Merge.Seconds()
	s.m["er.refine_s"] = tm.Refine.Seconds()
	s.m["er.merged_nodes"] = float64(pr.Result.MergedNodes)
	s.m["er.refine_removed"] = float64(pr.Result.RefineRemoved)
	s.m["simcache.memo_hit_ratio"] = ratio(memoHits.Value()-h0, memoMisses.Value()-m0)
	if fi, err := os.Stat(path); err == nil {
		s.m["store.snapshot_bytes_per_record"] = float64(fi.Size()) / float64(len(d.Records))
	}

	var c eval.Confusion
	for _, rp := range parentPairs {
		rc := eval.Compare(s.buildStore.MatchPairs(rp), d.TruePairs(rp))
		c.TP, c.FP, c.FN = c.TP+rc.TP, c.FP+rc.FP, c.FN+rc.FN
	}
	s.m["fstar"] = 100 * float64(c.TP) / float64(c.TP+c.FP+c.FN)
	s.m["er.precision"] = 100 * float64(c.TP) / float64(c.TP+c.FP)
	s.m["er.recall"] = 100 * float64(c.TP) / float64(c.TP+c.FN)
	if s.m["fstar"] < minFStar {
		s.fail("fstar %.2f below %.0f", s.m["fstar"], minFStar)
	}
	s.hash = clusterHash(snap.Clusters)
	if s.cfg.trace {
		s.blockingPass()
	}
	return nil
}

// blockingPass runs the blocker alone and checks its pairs against the truth
// F* is scored on.
func (s *stack) blockingPass() {
	d := s.buildD
	truth := make(map[model.PairKey]bool)
	for _, rp := range parentPairs {
		for k := range d.TruePairs(rp) {
			truth[k] = true
		}
	}
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	sp := s.tr.begin("blocking.PairsChunked", -1)
	pairs, hits := 0, 0
	blocking.NewLSH(blocking.ScaleLSHConfig()).PairsChunked(d, ids, func(chunk []blocking.Candidate) {
		pairs += len(chunk)
		for _, c := range chunk {
			if truth[model.MakePairKey(c.A, c.B)] {
				hits++
			}
		}
	})
	s.tr.end(sp)
	n := float64(len(d.Records))
	s.m["blocking.pairs_per_record"] = float64(pairs) / n
	s.m["blocking.pairs_completeness"] = float64(hits) / float64(len(truth))
	s.m["blocking.reduction_ratio"] = 1 - float64(pairs)/(n*(n-1)/2)
}

// coldStart times snapshot file → first answered search, wired exactly as
// `cmd/snaps -load … -serve -shards 2` wires its defaults.
func (s *stack) coldStart(path, savedHash string, probe model.RecordID) error {
	t0 := time.Now()
	root := s.tr.begin("cold_start", -1)
	step := func(name, metric string, fn func()) {
		sp, t := s.tr.begin(name, root), time.Now()
		fn()
		s.tr.end(sp)
		if metric != "" {
			s.m[metric] = time.Since(t).Seconds()
		}
	}
	var (
		snap    *store.Snapshot
		err     error
		ents    *er.EntityStore
		g       *pedigree.Graph
		coord   *shard.Coordinator
		status  int
		results []server.SearchResult
	)
	step("store.Load", "store.load_s", func() { snap, err = store.Load(path) })
	if err != nil {
		return err
	}
	step("Snapshot.Restore", "store.restore_s", func() { ents = snap.Restore() })
	step("pedigree.Build", "pedigree.build_s", func() { g = pedigree.Build(snap.Dataset, ents) })
	step("shard.Partition", "shard.partition_s", func() {
		coord = shard.Partition(g, shard.Options{Shards: shards, SimThreshold: simThreshold,
			CacheEntries: cacheEntries, StaleServe: true})
	})
	step("server.NewSharded", "", func() { err = s.wire(snap.Dataset, ents, g, coord) })
	if err != nil {
		return err
	}
	rec := snap.Dataset.Record(probe)
	step("first_search", "", func() { status, results = s.search(rec.FirstName(), rec.Surname()) })
	s.tr.end(root)
	s.m["searchable_s"] = time.Since(t0).Seconds()

	s.baseRecords = len(snap.Dataset.Records)
	s.m["pedigree.nodes"] = float64(len(g.Nodes))
	if got := clusterHash(snap.Clusters); got != savedHash {
		s.fail("loaded clusters %s differ from saved clusters %s", got, savedHash)
	}
	want, ok := g.NodeOfRecord(probe)
	switch {
	case status != http.StatusOK || len(results) == 0:
		s.fail("first search: status %d with %d results", status, len(results))
	case !ok || results[0].Entity != int32(want):
		s.fail("first search for %q %q: top hit is entity %d, want %d",
			rec.FirstName(), rec.Surname(), results[0].Entity, want)
	}
	return nil
}

// wire assembles server, ingest pipeline and admission control.
func (s *stack) wire(d *model.Dataset, ents *er.EntityStore, g *pedigree.Graph, coord *shard.Coordinator) error {
	srv := server.NewSharded(coord)
	srv.EnableStats()
	srv.EnableFeedback()
	srv.EnableExplain()
	srv.EnableSLO(obs.NewSLOTracker(250*time.Millisecond, 0.01, 0.05))

	icfg := ingest.DefaultConfig()
	icfg.BatchSize = ingestBatch
	icfg.MaxAge = 2 * time.Second
	icfg.QueryCache = cacheEntries
	icfg.StaleServe = true
	icfg.Tracer = srv.Tracer()
	icfg.Graph = s.gcfg
	icfg.Resolver = s.rcfg
	// No journal: fsync in the sandbox is not representative.
	pipe, err := ingest.NewPipeline(&ingest.Serving{Dataset: d, Store: ents, Graph: g, Shards: coord}, nil, nil, icfg)
	if err != nil {
		return err
	}
	srv.EnableIngest(pipe)

	acfg := admission.DefaultConfig()
	acfg.MaxConcurrency = admitBudget
	acfg.BacklogRetryAfter = icfg.MaxAge
	acfg.Backlog = pipe.Backlog
	acfg.ShardBacklog = pipe.HottestShardBacklog
	// Twice the fair share of the global bound, as cmd/snaps derives it.
	acfg.MaxShardBacklogRecords = 2 * acfg.MaxBacklogRecords / shards
	acfg.MaxShardBacklogBytes = 2 * acfg.MaxBacklogBytes / shards
	srv.EnableAdmission(admission.New(acfg))
	srv.EnableHealth(pipe)
	s.srv, s.pipe = srv, pipe
	return nil
}

// directIndexBuild times index.Build over the whole graph, which the sharded
// stack never calls as such, and probes its similarity miss path.
func (s *stack) directIndexBuild() {
	g := s.pipe.Serving().Graph
	sp, t := s.tr.begin("index.Build", -1), time.Now()
	kidx, sidx := index.Build(g, simThreshold)
	s.tr.end(sp)
	s.m["index.build_s"] = time.Since(t).Seconds()
	s.m["index.values_first"] = float64(kidx.Values(index.FieldFirstName))
	s.m["index.values_sur"] = float64(kidx.Values(index.FieldSurname))

	var lat []float64
	seen := make(map[string]bool)
	sp = s.tr.begin("Similarity.Similar", -1)
	for i := 0; i < len(g.Nodes) && len(lat) < 200; i++ {
		n := &g.Nodes[i]
		if len(n.Surnames) == 0 || len(n.Surnames[0]) < 4 || seen[n.Surnames[0]] {
			continue
		}
		seen[n.Surnames[0]] = true
		// "#" occurs in no generated name, so the value is unseen.
		v := n.Surnames[0][:2] + "#" + n.Surnames[0][2:]
		t := time.Now()
		sidx.Similar(index.FieldSurname, v)
		lat = append(lat, ms(time.Since(t)))
	}
	s.tr.end(sp)
	s.m["index.sim_miss_p50_ms"] = percentile(lat, 0.50)
}

// search answers one exact-name search and decodes its ranking.
func (s *stack) search(first, sur string) (status int, results []server.SearchResult) {
	status, body := s.do(http.MethodGet, searchURL(first, sur), nil)
	var resp server.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return status, nil
	}
	return status, resp.Results
}

// do sends one request through the server in-process.
func (s *stack) do(method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func searchURL(first, sur string) string {
	return "/api/search?first_name=" + url.QueryEscape(first) + "&surname=" + url.QueryEscape(sur)
}

// uniqueSurnameRecord returns the first record whose surname no other record
// carries: only its entity can match the surname exactly, so an exact-name
// search for it has one possible top hit.
func uniqueSurnameRecord(d *model.Dataset) (model.RecordID, bool) {
	count := make(map[model.Sym]int)
	for i := range d.Records {
		count[d.Records[i].Sur]++
	}
	for i := range d.Records {
		r := &d.Records[i]
		if count[r.Sur] == 1 && r.FirstName() != "" && r.Surname() != "" {
			return r.ID, true
		}
	}
	return 0, false
}

// toCertificates converts generated certificates to the ingest wire format,
// leaving out the few the ingest validator would refuse (a role with neither
// name), so that no submission fails.
func toCertificates(d *model.Dataset) []ingest.Certificate {
	types := map[model.CertType]string{model.Birth: "birth", model.Death: "death", model.Marriage: "marriage"}
	var out []ingest.Certificate
	for i := range d.Certificates {
		mc := &d.Certificates[i]
		c := ingest.Certificate{Type: types[mc.Type], Year: mc.Year, Cause: mc.Cause, Roles: map[string]ingest.Person{}}
		if mc.Age > 0 {
			c.Age = mc.Age
		}
		// Fixed role order: the address is the first principal's, and the
		// occupation the role's that ingest.Apply reads it for.
		for role := model.Role(0); role < model.NumRoles; role++ {
			id, ok := mc.Roles[role]
			if !ok || id < 0 {
				continue
			}
			r := d.Record(id)
			p := ingest.Person{FirstName: r.FirstName(), Surname: r.Surname()}
			if r.Gender != model.GenderUnknown {
				p.Gender = r.Gender.String()
			}
			c.Roles[role.String()] = p
			if role.IsPrincipal() && c.Address == "" {
				c.Address = r.Address()
			}
			if role == model.Bf || role == model.Dd {
				c.Occupation = r.Occupation()
			}
		}
		if c.Validate() == nil {
			out = append(out, c)
		}
	}
	return out
}

// clusterHash is an order-independent fingerprint of a clustering.
func clusterHash(clusters [][]model.RecordID) string {
	canon := make([][]model.RecordID, len(clusters))
	for i, c := range clusters {
		canon[i] = append([]model.RecordID(nil), c...)
		sort.Slice(canon[i], func(a, b int) bool { return canon[i][a] < canon[i][b] })
	}
	sort.Slice(canon, func(a, b int) bool {
		if len(canon[a]) == 0 || len(canon[b]) == 0 {
			return len(canon[a]) < len(canon[b])
		}
		return canon[a][0] < canon[b][0]
	})
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range canon {
		for _, id := range c {
			buf[0], buf[1], buf[2], buf[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// counter returns the obs.Default counter the program registered under name.
func counter(name string) *obs.Counter { return obs.Default.Counter(name, "") }

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
