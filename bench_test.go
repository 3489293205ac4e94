package snaps

// One benchmark per table and figure of the paper's evaluation (Sec. 10).
// Each benchmark regenerates the corresponding artefact through
// internal/experiments at a reduced scale so `go test -bench=.` finishes in
// minutes; run cmd/experiments with -scale 0.25 (or higher) for the
// full-size tables.
//
// Additional micro-benchmarks cover the pipeline stages (blocking, graph
// construction, resolution, indexing, querying) and the ablation-relevant
// design choices listed in DESIGN.md §3.

import (
	"io"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/experiments"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/store"
	"github.com/snaps/snaps/internal/strsim"
)

// benchOptions runs the experiment harness at benchmark scale.
func benchOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Scale = 0.08
	return opt
}

func BenchmarkTable1DataCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard, benchOptions())
	}
}

func BenchmarkFigure2FrequencyDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(io.Discard, benchOptions())
	}
}

func BenchmarkTable2DatasetCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard, benchOptions())
	}
}

func BenchmarkTable3Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard, benchOptions())
	}
}

func BenchmarkTable4LinkageQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard, benchOptions())
	}
}

func BenchmarkTable5Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard, benchOptions())
	}
}

func BenchmarkTable6Scalability(b *testing.B) {
	opt := benchOptions()
	opt.Scale = 0.04
	for i := 0; i < b.N; i++ {
		experiments.Table6(io.Discard, opt)
	}
}

func BenchmarkTable7QueryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table7(io.Discard, benchOptions())
	}
}

func BenchmarkFigure7PedigreeRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard, benchOptions())
	}
}

func BenchmarkExtensionSensitivity(b *testing.B) {
	opt := benchOptions()
	opt.Scale = 0.05
	for i := 0; i < b.N; i++ {
		experiments.Sensitivity(io.Discard, opt)
	}
}

func BenchmarkExtensionCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Census(io.Discard, benchOptions())
	}
}

func BenchmarkExtensionBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Blocking(io.Discard, benchOptions())
	}
}

// --- Pipeline-stage micro-benchmarks ---

func benchDataset(b *testing.B, scale float64) *model.Dataset {
	b.Helper()
	return dataset.Generate(dataset.IOS().Scaled(scale)).Dataset
}

func BenchmarkStageGenerate(b *testing.B) {
	cfg := dataset.IOS().Scaled(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.Generate(cfg)
	}
}

func BenchmarkStageBlocking(b *testing.B) {
	d := benchDataset(b, 0.1)
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	lsh := blocking.NewLSH(blocking.DefaultLSHConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsh.Pairs(d, ids)
	}
}

func BenchmarkStageGraphBuild(b *testing.B) {
	d := benchDataset(b, 0.1)
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depgraph.Build(d, depgraph.DefaultConfig(), cands)
	}
}

func BenchmarkStageResolve(b *testing.B) {
	d := benchDataset(b, 0.1)
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := depgraph.Build(d, depgraph.DefaultConfig(), cands)
		er.NewResolver(g, er.DefaultConfig()).Resolve()
	}
}

func BenchmarkStageIndexBuild(b *testing.B) {
	d := benchDataset(b, 0.1)
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(g, 0.5)
	}
}

func BenchmarkStageQuery(b *testing.B) {
	d := benchDataset(b, 0.1)
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	k, s := index.Build(g, 0.5)
	engine := query.NewEngine(g, k, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Search(query.Query{FirstName: "mary", Surname: "macdonald"})
	}
}

func BenchmarkStagePedigreeExtract(b *testing.B) {
	d := benchDataset(b, 0.1)
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Extract(pedigree.NodeID(i%len(g.Nodes)), 2)
	}
}

// --- Ablation benches for the design choices of DESIGN.md §3 ---

// BenchmarkAblationPropagationCost measures the runtime cost of PROP-A/C.
func BenchmarkAblationPropagationCost(b *testing.B) {
	for _, variant := range []struct {
		name string
		prop bool
	}{{"with-prop", true}, {"without-prop", false}} {
		b.Run(variant.name, func(b *testing.B) {
			d := benchDataset(b, 0.08)
			ids := make([]model.RecordID, len(d.Records))
			for i := range d.Records {
				ids[i] = d.Records[i].ID
			}
			cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, ids)
			cfg := er.DefaultConfig()
			cfg.Propagation = variant.prop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, _ := depgraph.Build(d, depgraph.DefaultConfig(), cands)
				er.NewResolver(g, cfg).Resolve()
			}
		})
	}
}

// BenchmarkAblationLSHBanding compares blocking configurations.
func BenchmarkAblationLSHBanding(b *testing.B) {
	d := benchDataset(b, 0.1)
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	for _, cfg := range []blocking.LSHConfig{
		{Bands: 8, Rows: 4, MaxBlockSize: 400},
		{Bands: 16, Rows: 2, MaxBlockSize: 400},
		{Bands: 4, Rows: 8, MaxBlockSize: 400},
	} {
		name := "bands=" + itoa(cfg.Bands) + "/rows=" + itoa(cfg.Rows)
		b.Run(name, func(b *testing.B) {
			lsh := blocking.NewLSH(cfg)
			for i := 0; i < b.N; i++ {
				lsh.Pairs(d, ids)
			}
		})
	}
}

// BenchmarkStringSimilarity covers the comparison kernels.
func BenchmarkStringSimilarity(b *testing.B) {
	pairs := [][2]string{
		{"macdonald", "mcdonald"},
		{"catherine", "katherine"},
		{"mary ann", "maryanne"},
		{"portree", "portree"},
	}
	b.Run("jaro-winkler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			strsim.JaroWinkler(p[0], p[1])
		}
	})
	b.Run("jaccard-bigram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			strsim.Jaccard(p[0], p[1])
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkConcurrentQueries measures query throughput with parallel
// clients against one engine, exercising the similarity index's
// read-mostly locking.
func BenchmarkConcurrentQueries(b *testing.B) {
	d := benchDataset(b, 0.1)
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	k, s := index.Build(g, 0.5)
	engine := query.NewEngine(g, k, s)
	var names [][2]string
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			names = append(names, [2]string{n.FirstNames[0], n.Surnames[0]})
		}
		if len(names) >= 64 {
			break
		}
	}
	if len(names) == 0 {
		b.Skip("no names")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			nm := names[i%len(names)]
			engine.Search(query.Query{FirstName: nm[0], Surname: nm[1]})
			i++
		}
	})
}

// benchExtendBase builds the shared fixture for the FullRun/Extend pair: a
// resolved base data set plus a one-certificate delta already appended.
func benchExtendBase() (*model.Dataset, *er.EntityStore, model.RecordID) {
	base := dataset.Generate(dataset.IOS().Scaled(0.08)).Dataset
	st := er.Run(base, depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
	firstNew := model.RecordID(len(base.Records))
	certID := model.CertID(len(base.Certificates))
	base.Records = append(base.Records, model.Record{
		ID: firstNew, Cert: certID, Role: model.Dd, Gender: model.Male,
		First: model.Intern("torquil"), Sur: model.Intern("macsween"), Year: 1899,
		Truth: model.NoPerson,
	})
	base.Certificates = append(base.Certificates, model.Certificate{
		ID: certID, Type: model.Death, Year: 1899, Age: 40, Cause: "phthisis",
		Roles: map[model.Role]model.RecordID{model.Dd: firstNew},
	})
	return base, st, firstNew
}

// BenchmarkFullRun is the baseline for live ingestion: re-resolving the
// whole data set from scratch after one certificate arrives.
func BenchmarkFullRun(b *testing.B) {
	d, _, _ := benchExtendBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	}
}

// BenchmarkExtend measures the incremental path the ingest pipeline takes
// per flush: restore the previous clustering over a cloned data set, then
// resolve only the pairs touching the new certificate. Compare against
// BenchmarkFullRun — the speedup is the point of the subsystem.
func BenchmarkExtend(b *testing.B) {
	d, st, firstNew := benchExtendBase()
	clusters := store.Snapshot{Dataset: d, Clusters: st.Clusters()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := clusters.Restore()
		b.StartTimer()
		er.Extend(d, fresh, firstNew, depgraph.DefaultConfig(), er.DefaultConfig())
	}
}

// BenchmarkBuildGraphStream compares the two ways blocking output reaches
// graph construction: materialising the full candidate slice and handing
// it to Build, versus streaming chunks from PairsChunked straight into
// BuildStream (the RunLSH path). Both produce byte-identical graphs (see
// TestBuildStreamMatchesBuild); the gap is the allocation and peak-memory
// cost of the intermediate slice.
func BenchmarkBuildGraphStream(b *testing.B) {
	d := dataset.Generate(dataset.IOS().Scaled(0.08)).Dataset
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	gcfg := depgraph.DefaultConfig()
	lcfg := blocking.DefaultLSHConfig()
	b.Run("materialised", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cands := blocking.NewLSH(lcfg).Pairs(d, ids)
			g, _ := depgraph.Build(d, gcfg, cands)
			if len(g.Nodes) == 0 {
				b.Fatal("empty graph")
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lsh := blocking.NewLSH(lcfg)
			g, _ := depgraph.BuildStream(d, gcfg, func(emit func(chunk []blocking.Candidate)) {
				lsh.PairsChunked(d, ids, emit)
			})
			if len(g.Nodes) == 0 {
				b.Fatal("empty graph")
			}
		}
	})
}

// BenchmarkOfflineRunWorkers runs the complete offline build — blocking,
// dependency graph, and component-partitioned resolution — at GOMAXPROCS 1
// and at the run's own GOMAXPROCS. The resolved clusters and their
// numbering are identical at every setting (see er's
// TestNumberingIndependentOfProcs); the gap between the two sub-benchmarks
// is the multi-core payoff.
func BenchmarkOfflineRunWorkers(b *testing.B) {
	d := dataset.Generate(dataset.IOS().Scaled(0.08)).Dataset
	for _, bench := range []struct {
		name  string
		procs int // 0 keeps the run's own GOMAXPROCS
	}{
		{"workers=1", 1},
		{"workers=gomaxprocs", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			partest.WithProcs(b, bench.procs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
			}
		})
	}
}
