// Command snaps runs the SNAPS family-pedigree-search pipeline end to end:
// it simulates (or loads) a vital-records data set, resolves entities with
// the unsupervised graph-based ER process, builds the pedigree graph and
// indexes, and either answers a single query, evaluates linkage quality, or
// serves the web interface.
//
// Usage:
//
//	snaps -dataset ios -serve :8080            # web interface
//	snaps -dataset ios -query "mary macdonald" # one-off query + pedigree
//	snaps -dataset kil -eval                   # linkage-quality report
//	snaps -dataset ios -anonymize -serve :8080 # anonymised deployment
//	snaps -dataset ios -save out.snaps         # persist resolved snapshot
//	snaps -load out.snaps -serve :8080         # serve without re-resolving
//	snaps -births b.csv -deaths d.csv -marriages m.csv -serve :8080
//	snaps -dataset ios -feedback fb.csv -eval  # apply expert corrections
//	snaps -load out.snaps -serve :8080 -ingest-journal wal.jsonl
//	                                           # serve with live ingestion
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/anonymize"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/feedback"
	"github.com/snaps/snaps/internal/geo"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/report"
	"github.com/snaps/snaps/internal/server"
	"github.com/snaps/snaps/internal/shard"
	"github.com/snaps/snaps/internal/store"
	"github.com/snaps/snaps/internal/vitalio"
)

// loadCSVs builds a data set from whichever certificate CSVs were provided.
func loadCSVs(births, deaths, marriages, census string) (*model.Dataset, error) {
	r := vitalio.NewReader("imported")
	read := func(path string, f func(src *os.File) error) error {
		if path == "" {
			return nil
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		return f(src)
	}
	if err := read(births, func(src *os.File) error { return r.ReadBirths(src) }); err != nil {
		return nil, err
	}
	if err := read(deaths, func(src *os.File) error { return r.ReadDeaths(src) }); err != nil {
		return nil, err
	}
	if err := read(marriages, func(src *os.File) error { return r.ReadMarriages(src) }); err != nil {
		return nil, err
	}
	if err := read(census, func(src *os.File) error { return r.ReadCensus(src) }); err != nil {
		return nil, err
	}
	return r.Dataset(), nil
}

func main() {
	var (
		dsName  = flag.String("dataset", "ios", "data set: ios, kil, ds, or bhic")
		scale   = flag.Float64("scale", 0.25, "population scale factor")
		anon    = flag.Bool("anonymize", false, "anonymise the data set before building indexes")
		serve   = flag.String("serve", "", "serve the web interface on this address (e.g. :8080)")
		queryNm = flag.String("query", "", "run one query: \"<first name> <surname>\"")
		doEval  = flag.Bool("eval", false, "evaluate linkage quality against ground truth")

		savePath = flag.String("save", "", "write the resolved snapshot to this file")
		loadPath = flag.String("load", "", "load a resolved snapshot instead of generating and resolving")

		birthsCSV    = flag.String("births", "", "load birth certificates from this CSV instead of simulating")
		deathsCSV    = flag.String("deaths", "", "load death certificates from this CSV")
		marriagesCSV = flag.String("marriages", "", "load marriage certificates from this CSV")
		censusCSV    = flag.String("census-csv", "", "load census households from this CSV")

		feedbackCSV = flag.String("feedback", "", "apply an expert feedback journal (CSV) after resolution")
		census      = flag.Bool("census", false, "include decennial census households in the simulated data set")
		reportPath  = flag.String("report", "", "write a Markdown linkage report to this file")

		ingestJournal = flag.String("ingest-journal", "", "journal live-ingested certificates to this WAL file (replayed on startup)")
		ingestBatch   = flag.Int("ingest-batch", 16, "flush ingested certificates after this many accumulate")
		ingestMaxAge  = flag.Duration("ingest-max-age", 2*time.Second, "flush a non-empty ingest batch after its oldest certificate waited this long")

		queryCache = flag.Int("query-cache", ingest.DefaultQueryCache, "cache up to this many merged rankings in one result cache (0 disables; invalidated on every ingest snapshot swap)")
		queryStale = flag.Bool("query-stale", true, "serve the previous generation's cached ranking, re-anchored to the new generation's entities, while a background refresh recomputes it after a snapshot swap (stale-while-revalidate)")
		shards     = flag.Int("shards", 1, "partition the serving tier into this many shards searched scatter-gather; every ingest flush re-indexes every shard (1 = one shard answering directly; results are byte-identical for any value)")

		admitConcurrency    = flag.Int("admit-concurrency", 64, "weighted in-flight request budget: pedigree renders admit up to 50%% of it, ingest 75%%, searches 100%% — the load-shed ladder (0 = no concurrency limit; the backlog bounds still apply)")
		admitBacklogRecords = flag.Int("admit-max-backlog-records", 4096, "shed ingest with 429 + Retry-After once this many certificates await a flush (0 = unbounded)")
		admitBacklogBytes   = flag.Int64("admit-max-backlog-bytes", 8<<20, "shed ingest with 429 + Retry-After once the unflushed backlog reaches this many encoded bytes (0 = unbounded)")

		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/ (metrics at /metrics are always on)")

		sloLatency       = flag.Duration("slo-latency", 250*time.Millisecond, "latency SLO: a success slower than this burns latency budget on /healthz")
		sloErrorBudget   = flag.Float64("slo-error-budget", 0.01, "tolerated 5xx fraction for /healthz burn rates")
		sloLatencyBudget = flag.Float64("slo-latency-budget", 0.05, "tolerated slow-success fraction for /healthz burn rates")

		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		slowQuery  = flag.Duration("slow-query", -1, "log any search at or above this duration with its full span tree (0 logs every search; negative disables)")
		traceDebug = flag.Bool("trace-debug", false, "mount GET /api/debug/traces serving the ring buffer of completed request traces")
	)
	flag.Parse()

	// Pairs in which one flag would silently undo the other: -load skips
	// the resolution run a report describes, and -anonymize re-resolves,
	// discarding the decisions -feedback applied.
	if *reportPath != "" && *loadPath != "" {
		fmt.Fprintln(os.Stderr, "-report cannot be combined with -load: a loaded snapshot has no resolution run to report")
		os.Exit(2)
	}
	if *feedbackCSV != "" && *anon {
		fmt.Fprintln(os.Stderr, "-feedback cannot be combined with -anonymize: anonymising re-resolves and discards the applied decisions")
		os.Exit(2)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(obs.NewLogger(os.Stderr, level, *logFormat))

	gcfg := depgraph.DefaultConfig()
	rcfg := er.DefaultConfig()

	var (
		d        *model.Dataset
		entStore *er.EntityStore
	)
	switch {
	case *loadPath != "":
		snap, err := store.Load(*loadPath)
		if err != nil {
			fatal(err)
		}
		d = snap.Dataset
		entStore = snap.Restore()
		slog.Info("loaded snapshot", "path", *loadPath, "records", len(d.Records), "clusters", len(snap.Clusters))
	case *birthsCSV != "" || *deathsCSV != "" || *marriagesCSV != "" || *censusCSV != "":
		var err error
		if d, err = loadCSVs(*birthsCSV, *deathsCSV, *marriagesCSV, *censusCSV); err != nil {
			fatal(err)
		}
		geo.GeocodeRecords(d.Records, geo.Skye())
		slog.Info("imported certificates", "certificates", len(d.Certificates), "records", len(d.Records))
	default:
		cfg, err := dataset.ConfigByName(*dsName)
		if err != nil {
			fatal(err)
		}
		cfg = cfg.Scaled(*scale)
		if *census {
			cfg = cfg.WithCensus()
		}
		slog.Info("generating population", "dataset", cfg.Name, "scale", *scale)
		d = dataset.Generate(cfg).Dataset
		slog.Info("generated data set", "certificates", len(d.Certificates), "records", len(d.Records))
	}

	if entStore == nil {
		slog.Info("resolving entities")
		pr := er.Run(d, gcfg, rcfg)
		slog.Info("resolved entities", "merged_pairs", pr.Result.MergedNodes, "took", pr.Total(),
			"atomic_nodes", len(pr.Graph.Atomics), "relational_nodes", len(pr.Graph.Nodes))
		entStore = pr.Result.Store
		if *reportPath != "" {
			f, err := os.Create(*reportPath)
			if err != nil {
				fatal(err)
			}
			report.Write(f, report.Input{Dataset: d, Pipeline: pr})
			if err := f.Close(); err != nil {
				fatal(err)
			}
			slog.Info("linkage report written", "path", *reportPath)
		}
	}

	if *feedbackCSV != "" {
		f, err := os.Open(*feedbackCSV)
		if err != nil {
			fatal(err)
		}
		journal, err := feedback.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		unlinked, linked := feedback.Apply(entStore, journal)
		slog.Info("applied feedback decisions", "decisions", journal.Len(),
			"unlinked", unlinked, "linked", linked, "violated", len(feedback.Violations(entStore, journal)))
	}

	if *savePath != "" {
		if err := store.Save(*savePath, store.FromResult(d, entStore)); err != nil {
			fatal(err)
		}
		slog.Info("snapshot saved", "path", *savePath)
	}

	if *doEval {
		for _, rp := range []model.RolePair{
			model.MakeRolePair(model.Bm, model.Bm),
			model.MakeRolePair(model.Bf, model.Bf),
			model.MakeRolePair(model.Bm, model.Dm),
			model.MakeRolePair(model.Bf, model.Df),
			model.MakeRolePair(model.Bb, model.Dd),
		} {
			q := eval.QualityOf(eval.Compare(entStore.MatchPairs(rp), d.TruePairs(rp)))
			fmt.Printf("%-8v %v\n", rp, q)
		}
	}

	if *anon {
		slog.Info("anonymising")
		// The demo's year shift; a deployment keeps its own offset secret.
		anonD, _ := anonymize.Anonymize(d, -37)
		// Re-run the pipeline on the anonymised data so the served indexes
		// never contain sensitive values.
		d = anonD
		entStore = er.Run(d, gcfg, rcfg).Result.Store
	}

	// The serving tier is one coordinator over -shards partitions of the
	// pedigree graph; every ingest flush re-indexes every shard from the
	// shard's previous indexes (index.UpdateSubset).
	icfg := ingest.DefaultConfig()
	icfg.BatchSize = *ingestBatch
	icfg.MaxAge = *ingestMaxAge
	icfg.QueryCache = *queryCache
	icfg.StaleServe = *queryStale
	icfg.Graph = gcfg
	icfg.Resolver = rcfg
	sv := ingest.NewServing(d, entStore, *shards, icfg)
	slog.Info("built pedigree graph and serving tier",
		"entities", len(sv.Graph.Nodes), "shards", sv.Shards.NumShards())

	if *queryNm != "" {
		runQuery(sv.Shards, *queryNm)
	}
	if *serve != "" {
		// Live ingestion: new certificates POSTed to /api/ingest are
		// journalled, batch-resolved with er.Extend, and hot-swapped into
		// the serving snapshot without downtime.
		var (
			journal *ingest.Journal
			backlog []ingest.Certificate
		)
		if *ingestJournal != "" {
			var err error
			if journal, backlog, err = ingest.OpenJournal(*ingestJournal); err != nil {
				fatal(err)
			}
			if len(backlog) > 0 {
				slog.Info("replaying journalled certificates", "count", len(backlog), "path", *ingestJournal)
			}
		}
		// Admission control: weighted concurrency limits with the
		// pedigree-before-search shed ladder, and ingest backpressure
		// reading the pipeline's backlog; each bound's 0 turns off only
		// that bound.
		acfg := admission.DefaultConfig()
		acfg.MaxConcurrency = *admitConcurrency
		acfg.MaxBacklogRecords = *admitBacklogRecords
		acfg.MaxBacklogBytes = *admitBacklogBytes
		srv, err := server.NewStack(sv, journal, backlog, icfg, acfg)
		if err != nil {
			fatal(err)
		}
		srv.EnableStats()
		srv.EnableFeedback()
		srv.EnableExplain()
		if *pprofFlag {
			srv.EnablePprof()
			slog.Info("pprof profiling enabled", "path", "/debug/pprof/")
		}

		// Request tracing: every request runs under a root span; slow
		// searches log their full span tree, and -trace-debug exposes the
		// ring buffer of completed traces.
		srv.Tracer().SetSlowQuery(*slowQuery, "search")
		if *traceDebug {
			srv.EnableTraceDebug()
			slog.Info("trace debug enabled", "path", "/api/debug/traces")
		}

		// SLO tracker: /healthz reports 1m/5m latency- and error-budget
		// burn rates over every response.
		srv.EnableSLO(obs.NewSLOTracker(*sloLatency, *sloErrorBudget, *sloLatencyBudget))

		slog.Info("serving", "addr", *serve, "shards", *shards,
			"ingest_batch", icfg.BatchSize,
			"ingest_max_age", icfg.MaxAge, "query_cache", *queryCache,
			"query_stale", *queryStale, "admit_concurrency", *admitConcurrency,
			"slow_query", *slowQuery, "trace_debug", *traceDebug)
		fatal(http.ListenAndServe(*serve, srv))
	}
	if *queryNm == "" && *serve == "" && !*doEval {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -serve, -query, or -eval")
		os.Exit(2)
	}
}

// fatal logs err at error level through the structured logger and exits.
func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}

func runQuery(coord *shard.Coordinator, nameQuery string) {
	// "first / surname" splits explicitly (needed for multi-token surnames
	// like "van den berg"); otherwise the last token is the surname.
	var first, sur string
	if i := strings.Index(nameQuery, "/"); i >= 0 {
		first = vitalio.Norm(nameQuery[:i])
		sur = vitalio.Norm(nameQuery[i+1:])
	} else {
		parts := strings.Fields(strings.ToLower(nameQuery))
		if len(parts) < 2 {
			fatal(fmt.Errorf("query must be %q or %q, got %q", "<first name> <surname>", "<first> / <surname>", nameQuery))
		}
		first = strings.Join(parts[:len(parts)-1], " ")
		sur = parts[len(parts)-1]
	}
	q := query.Query{FirstName: first, Surname: sur}
	results := coord.Search(q)
	g := coord.Graph()
	if len(results) == 0 {
		fmt.Println("no matches")
		return
	}
	fmt.Printf("%-4s %-28s %-3s %-10s %-8s\n", "#", "name", "sex", "years", "score")
	for i, r := range results {
		n := g.Node(r.Entity)
		years := ""
		if n.MinYear != 0 {
			years = fmt.Sprintf("%d-%d", n.MinYear, n.MaxYear)
		}
		fmt.Printf("%-4d %-28s %-3s %-10s %7.2f%%\n",
			i+1, n.DisplayName(), n.Gender, years, r.Score)
	}
	ped := g.Extract(results[0].Entity, 2)
	fmt.Println()
	fmt.Print(g.RenderText(ped))
}
