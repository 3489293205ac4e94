// Command snapsload is the SNAPS load harness: it replays deterministic
// traffic mixes against a server at a fixed open-loop arrival rate and
// writes a JSON report (-out, default stdout) with per-route latency
// quantiles, throughput, and shed counts.
//
// By default it builds the full pipeline in-process (simulate -> resolve ->
// index -> serve with ingestion and admission control) and drives the
// handler directly, so the report measures server work without
// network noise. Pass -url to aim the same mixes at a live server instead.
// It exits 1 when any route reports an error (a transport failure or a
// status other than 2xx and 429); a 429 is a shed, not an error.
//
// Usage:
//
//	snapsload                              # in-process, all three mixes
//	snapsload -rate 800 -duration 10s      # heavier pass
//	snapsload -mixes ingest-burst          # one mix only
//	snapsload -url http://localhost:8080   # against a live server
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/snaps/snaps/internal/admission"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/load"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/server"
)

// Report is the schema of the -out report.
type Report struct {
	Dataset      string            `json:"dataset"`
	Scale        float64           `json:"scale"`
	Entities     int               `json:"entities"`
	Shards       int               `json:"shards"`
	RateRPS      float64           `json:"rate_rps"`
	Duration     string            `json:"duration"`
	Seed         int64             `json:"seed"`
	Target       string            `json:"target"` // "in-process" or the URL
	Admission    *AdmissionConfig  `json:"admission,omitempty"`
	Mixes        []*load.MixReport `json:"mixes,omitempty"`
	ShedCounters map[string]int64  `json:"shed_counters,omitempty"`
}

// AdmissionConfig records the admission knobs the run was measured under.
type AdmissionConfig struct {
	MaxConcurrency    int   `json:"max_concurrency"`
	MaxBacklogRecords int   `json:"max_backlog_records"`
	MaxBacklogBytes   int64 `json:"max_backlog_bytes"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapsload:", err)
	os.Exit(1)
}

func main() {
	var (
		urlFlag  = flag.String("url", "", "base URL of a live server; empty runs the full pipeline in-process")
		dsName   = flag.String("dataset", "ios", "dataset to simulate for the in-process target (ios, kil)")
		scale    = flag.Float64("scale", 0.05, "dataset scale factor for the in-process target")
		rate     = flag.Float64("rate", 400, "open-loop arrival rate, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "arrival window per mix")
		mixNames = flag.String("mixes", "read-heavy,mixed,ingest-burst", "comma-separated mixes to run")
		seed     = flag.Int64("seed", 1, "workload seed (same seed replays the same op sequence)")
		out      = flag.String("out", "-", "report output path; - for stdout")
		maxOut   = flag.Int("max-outstanding", 4096, "cap on concurrent in-flight requests")

		admitConcurrency    = flag.Int("admit-concurrency", 64, "in-process target: weighted concurrency budget (0 = no concurrency limit; the backlog bounds still apply)")
		admitBacklogRecords = flag.Int("admit-max-backlog-records", 4096, "in-process target: shed ingest once this many records are unflushed")
		admitBacklogBytes   = flag.Int64("admit-max-backlog-bytes", 8<<20, "in-process target: shed ingest once this many bytes are unflushed")
		ingestBatch         = flag.Int("ingest-batch", 256, "in-process target: ingest flush batch size")
		shards              = flag.Int("shards", 1, "in-process target: partition the serving tier into this many scatter-gather shards (1 = one shard answering directly)")
	)
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	var mixes []load.Mix
	for _, name := range strings.Split(*mixNames, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := load.MixByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown mix %q (have: read-heavy, mixed, ingest-burst)", name))
		}
		mixes = append(mixes, m)
	}
	if len(mixes) == 0 {
		fatal(fmt.Errorf("no mixes selected"))
	}

	rep := &Report{
		Dataset: *dsName, Scale: *scale, RateRPS: *rate,
		Duration: duration.String(), Seed: *seed, Shards: *shards,
	}

	var (
		target target
		graph  *pedigree.Graph
	)
	if *urlFlag != "" {
		rep.Target = *urlFlag
		rep.Dataset, rep.Scale = "remote", 0
		// The workload still needs name pools: mine them from a locally
		// simulated graph at the requested scale. Matching the live
		// server's dataset is the operator's job.
		graph = pedigree.Build(resolve(*dsName, *scale))
		target = &load.HTTPTarget{Base: strings.TrimRight(*urlFlag, "/"),
			Client: &http.Client{Timeout: 30 * time.Second}}
	} else {
		rep.Target = "in-process"
		var srv *server.Server
		d, st := resolve(*dsName, *scale)
		srv, graph = buildServer(d, st, *ingestBatch, *shards,
			*admitConcurrency, *admitBacklogRecords, *admitBacklogBytes)
		rep.Admission = &AdmissionConfig{
			MaxConcurrency:    *admitConcurrency,
			MaxBacklogRecords: *admitBacklogRecords,
			MaxBacklogBytes:   *admitBacklogBytes,
		}
		target = &load.HandlerTarget{Handler: srv}
	}
	rep.Entities = len(graph.Nodes)

	w, err := load.BuildWorkload(graph)
	if err != nil {
		fatal(err)
	}
	slog.Info("workload ready", "hot", len(w.Hot), "cold", len(w.Cold), "entities", w.Entities)

	var failed int64
	for _, m := range mixes {
		slog.Info("running mix", "mix", m.Name, "rate", *rate, "duration", *duration)
		mr, err := load.Run(target, w, m, load.Config{
			Rate: *rate, Duration: *duration, MaxOutstanding: *maxOut, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		rep.Mixes = append(rep.Mixes, mr)
		printMix(mr)
		for _, rt := range mr.Routes {
			failed += rt.Errors
		}
	}
	rep.ShedCounters = shedCounters()

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	} else {
		slog.Info("report written", "path", *out)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d requests failed (transport error or a status other than 2xx and 429)", failed))
	}
}

// target is load.Target; aliased locally to keep main readable.
type target = load.Target

// resolve runs simulate -> resolve, the prefix of both targets.
func resolve(name string, scale float64) (*model.Dataset, *er.EntityStore) {
	cfg, err := dataset.ConfigByName(name)
	if err != nil {
		fatal(err)
	}
	slog.Info("simulating", "dataset", name, "scale", scale)
	d := dataset.Generate(cfg.Scaled(scale)).Dataset
	return d, er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
}

// buildServer stands up the full in-process serving stack over a resolved
// data set through server.NewStack, the assembly cmd/snaps -serve runs, at
// cmd/snaps' defaults (no journal — the harness measures serving, not
// fsync).
func buildServer(d *model.Dataset, st *er.EntityStore, batch, shards, concurrency, maxRecords int, maxBytes int64) (*server.Server, *pedigree.Graph) {
	icfg := ingest.DefaultConfig()
	icfg.BatchSize = batch
	icfg.QueryCache = ingest.DefaultQueryCache
	sv := ingest.NewServing(d, st, shards, icfg)
	acfg := admission.DefaultConfig()
	acfg.MaxConcurrency = concurrency
	acfg.MaxBacklogRecords = maxRecords
	acfg.MaxBacklogBytes = maxBytes
	srv, err := server.NewStack(sv, nil, nil, icfg, acfg)
	if err != nil {
		fatal(err)
	}
	slog.Info("in-process server ready", "entities", len(sv.Graph.Nodes),
		"shards", shards, "admit_concurrency", concurrency)
	return srv, sv.Graph
}

// shedCounters snapshots the admission counters so the report carries the
// server-side view of every shed decision (in-process target only; against
// a live server these read zero and are omitted).
func shedCounters() map[string]int64 {
	out := map[string]int64{}
	for _, cl := range []admission.Class{admission.Search, admission.Ingest, admission.Pedigree} {
		for _, reason := range []string{"concurrency", "backlog", "shard_backlog"} {
			name := "snaps_admission_shed_total{" +
				obs.Label("class", cl.String()) + "," + obs.Label("reason", reason) + "}"
			if v := obs.Default.Counter(name, "").Value(); v > 0 {
				out[cl.String()+"/"+reason] = v
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func printMix(r *load.MixReport) {
	fmt.Printf("\nmix %s: offered %.0f rps, achieved %.0f rps, %d requests, %d dropped\n",
		r.Mix.Name, r.OfferedRate, r.AchievedRate, r.Requests, r.Dropped)
	fmt.Printf("  %-12s %8s %8s %6s %6s %9s %9s %9s %9s\n",
		"route", "count", "ok", "shed", "err", "p50ms", "p95ms", "p99ms", "maxms")
	for _, name := range r.RouteNames() {
		rt := r.Routes[name]
		fmt.Printf("  %-12s %8d %8d %6d %6d %9.3f %9.3f %9.3f %9.3f\n",
			name, rt.Count, rt.OK, rt.Shed, rt.Errors, rt.P50Ms, rt.P95Ms, rt.P99Ms, rt.MaxMs)
	}
}
