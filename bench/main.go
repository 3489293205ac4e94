// Command bench is the repository's one benchmark: four workloads over one
// seeded chain (generate → ER build → snapshot → cold start → read load →
// ingest load), each measured from outside the program through its public
// functions. See README.md in this directory and BENCHMARK.json at the root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/snaps/snaps/internal/obs"
)

// childResult is what one process of a run reports to the one that started
// it, as the last line of its standard output.
type childResult struct {
	Metrics   metrics  `json:"metrics"`
	Hash      string   `json:"hash"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors"`
}

const (
	phaseBuild = "build" // set-up and build
	phaseBatch = "batch" // set-up, build, cold start
	phaseFull  = "full"  // the batch half, then the load phases
)

// runChild executes one process's share of a run in this process.
func runChild(cfg runConfig, phase, traceOut string) (*childResult, error) {
	var tr *tracer
	var hs *heapSampler
	if cfg.trace {
		tr, hs = newTracer(cfg.w.name), startHeapSampler()
	}
	t0 := time.Now()
	s, err := runBatch(cfg, tr, phase == phaseBuild)
	if err != nil {
		return nil, err
	}
	res := &childResult{Metrics: s.m, Hash: s.hash, Attempted: 1, Errors: s.errs}
	if phase == phaseBuild {
		return res, nil
	}
	defer s.pipe.Close()
	if phase == phaseFull {
		attempted, failed, err := s.serve()
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = res.Attempted+attempted, failed
	}
	if cfg.trace {
		hs.finish(s.m)
		s.m["trace_overhead_pct"] = 100 * float64(tr.count()) * float64(spanCost()) / float64(time.Since(t0))
		tr.report(os.Stderr)
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
	}
	res.Errors = s.errs
	return res, nil
}

// spawner runs one process's share of a run and returns its report. main
// starts a fresh process per share; the smoke test runs them in-process.
type spawner func(cfg runConfig, phase string) (*childResult, error)

// runResult is one run, merged over its processes.
type runResult struct {
	m         metrics
	hash      string
	attempted int
	failed    int
	errs      []string
}

// runOnce makes one run: the workload's rounds of the batch half and its
// build-only rounds, each in a fresh process; the last batch round carries on
// into the load phases and so runs last. The
// traced run makes one round and adds a half-tier batch for the growth
// exponents.
func runOnce(cfg runConfig, spawn spawner) (*runResult, error) {
	rounds, buildRounds := cfg.w.rounds, cfg.w.buildRounds
	if cfg.trace {
		rounds, buildRounds = 1, 0
	}
	out := &runResult{}
	samples := make(map[string][]float64)
	collect := func(res *childResult) {
		out.attempted += res.Attempted
		out.failed += res.Failed
		out.errs = append(out.errs, res.Errors...)
		for _, name := range roundFastest {
			if v, ok := res.Metrics[name]; ok {
				samples[name] = append(samples[name], v)
			}
		}
		if out.hash == "" {
			out.hash = res.Hash
		} else if res.Hash != out.hash {
			out.errs = append(out.errs, fmt.Sprintf("cluster hash %s differs from %s between rounds of one seed", res.Hash, out.hash))
		}
	}
	for r := 0; r < rounds-1+buildRounds; r++ {
		phase := phaseBatch
		if r >= rounds-1 {
			phase = phaseBuild
		}
		res, err := spawn(cfg, phase)
		if err != nil {
			return nil, err
		}
		collect(res)
	}
	full, err := spawn(cfg, phaseFull)
	if err != nil {
		return nil, err
	}
	collect(full)
	out.m = full.Metrics
	for _, name := range roundFastest {
		out.m[name] = slices.Min(samples[name])
		fmt.Fprintf(os.Stderr, "rounds: %s %.4f\n", name, samples[name])
	}
	if cfg.trace {
		// One sample per tier: a single timing on the sandbox can be off by
		// 40%, so read exponents from the medians of a -repeat.
		half := cfg
		half.tierScale /= 2
		res, err := spawn(half, phaseBatch)
		if err != nil {
			return nil, err
		}
		for _, stage := range growthStages {
			out.m[stage+"_growth_exp"] = math.Log2(out.m[stage] / res.Metrics[stage])
		}
	}
	return out, nil
}

// execSpawner starts this binary again for one share of the run.
func execSpawner(traceOut string) spawner {
	return func(cfg runConfig, phase string) (*childResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		out := traceOut
		if phase != phaseFull {
			out += "." + phase
		}
		cmd := exec.Command(exe, "-phase", phase, "-workload", cfg.w.name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-tier-scale", strconv.FormatFloat(cfg.tierScale, 'g', -1, 64),
			"-trace", trace, "-trace-out", out, "-dir", cfg.dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s process of %s: %w", phase, cfg.w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res childResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s process of %s: %w", phase, cfg.w.name, err)
		}
		return &res, nil
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the way Python's statistics.quantiles does by
// default (the exclusive method), clamped to the sample's range.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload: build-er, cold-start, serve-read or serve-ingest")
		seed      = flag.Int64("seed", 1, "seed of the generated data, hold-out stream (seed+1) and request order")
		secs      = flag.Float64("seconds", defaultSeconds, "seconds of load, split between the phases by the workload's shares")
		trace     = flag.Int("trace", 0, "1 = traced run: spans around every layer call, direct-call phases, flush walk, growth exponents; prints the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "file the traced run writes its spans to (default: under the temporary directory)")
		repeat    = flag.Int("repeat", 1, "make this many runs and print median and quartiles per metric")
		tierScale = flag.Float64("tier-scale", 1, "multiply the workload's tiers, e.g. 0.5 for half tier")
		phase     = flag.String("phase", "", "internal: run one process's share (batch or full) and print its report")
		dir       = flag.String("dir", "", "internal: scratch directory of the run")
	)
	flag.Parse()
	slog.SetDefault(obs.NewLogger(os.Stderr, slog.LevelWarn, "text"))
	w, ok := findWorkload(*name)
	if !ok || *secs <= 0 || *tierScale <= 0 || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload <build-er|cold-start|serve-read|serve-ingest> [-seed n] [-seconds s] [-trace 0|1] [-repeat k] [-tier-scale f]\n")
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *secs, tierScale: *tierScale, trace: *trace != 0, dir: *dir}
	if *traceOut == "" {
		*traceOut = filepath.Join(os.TempDir(), "snapsbench-"+w.name+".trace.jsonl")
	}

	if *phase != "" {
		res, err := runChild(cfg, *phase, *traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	tmp, err := os.MkdirTemp("", "snapsbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg.dir = tmp

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	values := make(map[string][]float64)
	attempted, failed := 0, 0
	var errs []string
	hash := ""
	for i := 0; i < *repeat; i++ {
		run, err := runOnce(cfg, execSpawner(*traceOut))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		attempted, failed = attempted+run.attempted, failed+run.failed
		errs = append(errs, run.errs...)
		if hash != "" && run.hash != hash {
			errs = append(errs, fmt.Sprintf("cluster hash %s differs from %s between repeats of one seed", run.hash, hash))
		}
		hash = run.hash
		for _, sp := range specs {
			v, ok := run.m[sp.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: run did not measure %s\n", sp.name)
				return 1
			}
			values[sp.name] = append(values[sp.name], v)
		}
	}

	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(errs) == 0, attempted, failed, map[string]metricOut{}}
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g tier-scale=%g runs=%d clusters=%s ops_attempted=%d ops_failed=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.tierScale, *repeat, hash, attempted, failed)
	fmt.Fprintf(os.Stderr, "  %-34s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit")
	for _, sp := range specs {
		xs := values[sp.name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %14.4f %14.4f  %s\n", sp.name, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), sp.unit)
		out.Metrics[sp.name] = metricOut{median(xs), sp.unit}
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "INCORRECT:", e)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}
