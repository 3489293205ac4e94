package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON keeps the names the program prints and the
// names BENCHMARK.json declares from drifting apart.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, implemented %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(b.EndToEnd), len(endToEnd))
	}
	for i, sp := range endToEnd {
		d := b.EndToEnd[i]
		if d.Name != sp.name || d.Unit != sp.unit {
			t.Errorf("end-to-end %d: declared %s [%s], printed %s [%s]", i, d.Name, d.Unit, sp.name, sp.unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, sp := range perLayer {
		if d := b.PerLayer[i]; d.Name != sp.name || d.Unit != sp.unit {
			t.Errorf("per-layer %d: declared %s [%s], printed %s [%s]", i, d.Name, d.Unit, sp.name, sp.unit)
		}
	}
}

// TestSmoke runs every workload traced at a quarter of its tier with 1.5 s
// of load, in-process, and requires every declared metric to be measured and
// every correctness check to pass.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runConfig{w: w, seed: 7, seconds: 1.5, tierScale: 0.25, trace: true, dir: dir}
			run, err := runOnce(cfg, func(cfg runConfig, phase string) (*childResult, error) {
				return runChild(cfg, phase, filepath.Join(dir, "trace.jsonl"))
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range run.errs {
				t.Errorf("incorrect: %s", e)
			}
			if run.failed != 0 || run.attempted == 0 {
				t.Errorf("%d of %d operations failed", run.failed, run.attempted)
			}
			for _, sp := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				v, ok := run.m[sp.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (measured: %v)", sp.name, v, ok)
				}
			}
			for name := range run.m {
				if !declared(name) {
					t.Errorf("%s is measured but declared in neither metric list", name)
				}
			}
		})
	}
}

// TestRoundsMerge makes an untraced run of two rounds, which the traced
// smoke runs do not: the fastest of the rounds and the cluster hash compared
// between them.
func TestRoundsMerge(t *testing.T) {
	w, _ := findWorkload("serve-read")
	w.rounds, w.buildRounds = 2, 1
	dir := t.TempDir()
	cfg := runConfig{w: w, seed: 8, seconds: 1, tierScale: 0.25, dir: dir}
	run, err := runOnce(cfg, func(cfg runConfig, phase string) (*childResult, error) {
		return runChild(cfg, phase, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.errs) > 0 || run.failed != 0 {
		t.Errorf("violations %v, %d operations failed", run.errs, run.failed)
	}
	for _, sp := range endToEnd {
		if v, ok := run.m[sp.name]; !ok || !(v > 0) {
			t.Errorf("%s = %v (measured: %v), want a positive value", sp.name, v, ok)
		}
	}
}

func declared(name string) bool {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, sp := range list {
			if sp.name == name {
				return true
			}
		}
	}
	return false
}

// TestFlushWalkMatchesPipeline guards the hand-walked flush against drifting
// from ingest.flushLocked: after the same batch both end with the same
// record, entity and cluster counts.
func TestFlushWalkMatchesPipeline(t *testing.T) {
	w, _ := findWorkload("serve-ingest")
	s, err := runBatch(runConfig{w: w, seed: 7, seconds: 1, tierScale: 0.25, dir: t.TempDir()}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.pipe.Close()
	batch := s.certs[:ingestBatch]
	records, entities, clusters, err := s.flushWalk(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if err := s.pipe.Submit(&batch[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.pipe.Status()
	if got := len(s.pipe.Serving().Store.Clusters()); st.Records != records || st.Entities != entities || got != clusters {
		t.Errorf("pipeline: %d records, %d entities, %d clusters; walk: %d, %d, %d",
			st.Records, st.Entities, got, records, entities, clusters)
	}
	if st.Applied != len(batch) || len(s.errs) > 0 {
		t.Errorf("applied %d of %d; violations: %v", st.Applied, len(batch), s.errs)
	}
}
