// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 10) on the simulated data sets. Each function prints the
// same rows/series the paper reports; cmd/experiments dispatches on
// experiment ids and bench_test.go at the repository root wraps each one in
// a benchmark.
//
// Absolute numbers differ from the paper (synthetic data, different
// hardware, Go instead of Python 2.7); the shapes — who wins, by roughly
// what factor, where the techniques matter — are the reproduction target.
// EXPERIMENTS.md records paper-versus-measured values.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/snaps/snaps/internal/baseline"
	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/mlmatch"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

// Options scales the experiment workloads; 1.0 runs the full simulated data
// sets, smaller values run faster approximations with the same shape.
type Options struct {
	Scale float64
	// TruthKeepBpDp models the paper's incomplete, inferred Bp-Dp ground
	// truth (Sec. 10 explains the quality drop on that role pair): the
	// fraction of true Bp-Dp pairs retained when scoring. 1.0 disables it.
	TruthKeepBpDpIOS float64
	TruthKeepBpDpKIL float64
}

// DefaultOptions mirror the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{Scale: 0.25, TruthKeepBpDpIOS: 0.87, TruthKeepBpDpKIL: 0.72}
}

// BpBp and BpDp are the evaluated role-pair groups of Tables 3 and 4:
// birth-parent to birth-parent links and birth-parent to death-parent
// links, each combining the mother and father role pairs.
var (
	BpBp = []model.RolePair{
		model.MakeRolePair(model.Bm, model.Bm),
		model.MakeRolePair(model.Bf, model.Bf),
	}
	BpDp = []model.RolePair{
		model.MakeRolePair(model.Bm, model.Dm),
		model.MakeRolePair(model.Bf, model.Df),
	}
)

// combinedTruth merges the truth pair sets of several role pairs.
func combinedTruth(d *model.Dataset, rps []model.RolePair) map[model.PairKey]bool {
	out := map[model.PairKey]bool{}
	for _, rp := range rps {
		for k := range d.TruePairs(rp) {
			out[k] = true
		}
	}
	return out
}

// combinedPred merges the predicted pair sets of several role pairs.
func combinedPred(store *er.EntityStore, rps []model.RolePair) map[model.PairKey]bool {
	out := map[model.PairKey]bool{}
	for _, rp := range rps {
		for k := range store.MatchPairs(rp) {
			out[k] = true
		}
	}
	return out
}

// filterRolePairs keeps only pair keys whose records form one of the role
// pairs.
func filterRolePairs(d *model.Dataset, pred map[model.PairKey]bool, rps []model.RolePair) map[model.PairKey]bool {
	want := map[model.RolePair]bool{}
	for _, rp := range rps {
		want[rp] = true
	}
	out := map[model.PairKey]bool{}
	for k := range pred {
		a, b := k.Split()
		if want[model.MakeRolePair(d.Record(a).Role, d.Record(b).Role)] {
			out[k] = true
		}
	}
	return out
}

// Table1 prints the data characteristics table: missing-value counts and
// QID value frequencies of deceased people in IOS, KIL, and the DS-scale
// sample.
func Table1(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 1: missing values and QID value frequencies (deceased people)")
	fmt.Fprintf(w, "%-8s %-12s %9s %7s %8s %8s\n", "Dataset", "QID", "Missing", "Min", "Avg", "Max")
	for _, cfg := range []dataset.Config{
		dataset.IOS().Scaled(opt.Scale),
		dataset.KIL().Scaled(opt.Scale),
		dataset.DS().Scaled(opt.Scale),
	} {
		p := dataset.Generate(cfg)
		st := dataset.ComputeStats(p.Dataset, model.Dd)
		label := fmt.Sprintf("%s (%d)", cfg.Name, st.Records)
		for _, a := range []model.Attr{model.FirstName, model.Surname, model.Address, model.Occupation} {
			as := st.PerAttr[a]
			fmt.Fprintf(w, "%-8s %-12s %9d %7d %8.1f %8d\n",
				label, a, as.Missing, as.MinFreq, as.AvgFreq, as.MaxFreq)
			label = ""
		}
	}
}

// Figure2 prints the frequency distributions of the 100 most common first
// names, surnames, and addresses of deceased people in IOS and KIL: the
// series behind Figure 2.
func Figure2(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Figure 2: frequency of the 100 most common values (deceased people)")
	for _, cfg := range []dataset.Config{dataset.IOS().Scaled(opt.Scale), dataset.KIL().Scaled(opt.Scale)} {
		p := dataset.Generate(cfg)
		total := len(p.Dataset.RecordsByRole(model.Dd))
		for _, a := range []model.Attr{model.FirstName, model.Surname, model.Address} {
			top := dataset.TopValues(p.Dataset, a, 100, model.Dd)
			fmt.Fprintf(w, "%s %s: ", cfg.Name, a)
			for i, vc := range top {
				if i >= 10 {
					break // head of the series; the full curve is the ranks below
				}
				fmt.Fprintf(w, "%s=%d ", vc.Value, vc.Count)
			}
			if len(top) > 0 {
				fmt.Fprintf(w, " | top1 share=%.2f%% distinct=%d", 100*float64(top[0].Count)/float64(total), len(top))
			}
			fmt.Fprintln(w)
			// The full rank-frequency series, printable as a curve.
			fmt.Fprintf(w, "%s %s series:", cfg.Name, a)
			for _, vc := range top {
				fmt.Fprintf(w, " %d", vc.Count)
			}
			fmt.Fprintln(w)
		}
	}
}

// Table2 prints the data set characteristics used by the evaluation: number
// of records per role group, candidate record pairs, and true matches for
// Bp-Bp and Bp-Dp on IOS and KIL.
func Table2(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 2: data set characteristics")
	fmt.Fprintf(w, "%-8s %-7s %10s %10s %12s %12s\n", "Dataset", "Pair", "Role-1", "Role-2", "Cand pairs", "True match")
	for _, cfg := range []dataset.Config{dataset.IOS().Scaled(opt.Scale), dataset.KIL().Scaled(opt.Scale)} {
		p := dataset.Generate(cfg)
		d := p.Dataset
		ids := d.RecordIDs()
		cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, ids)
		for _, grp := range []struct {
			name   string
			rps    []model.RolePair
			roles1 []model.Role
			roles2 []model.Role
		}{
			{"Bp-Bp", BpBp, []model.Role{model.Bm, model.Bf}, []model.Role{model.Bm, model.Bf}},
			{"Bp-Dp", BpDp, []model.Role{model.Bm, model.Bf}, []model.Role{model.Dm, model.Df}},
		} {
			want := map[model.RolePair]bool{}
			for _, rp := range grp.rps {
				want[rp] = true
			}
			nc := 0
			for _, c := range cands {
				if want[model.MakeRolePair(d.Record(c.A).Role, d.Record(c.B).Role)] {
					nc++
				}
			}
			truth := combinedTruth(d, grp.rps)
			fmt.Fprintf(w, "%-8s %-7s %10d %10d %12d %12d\n",
				cfg.Name, grp.name,
				len(d.RecordsByRole(grp.roles1...)), len(d.RecordsByRole(grp.roles2...)),
				nc, len(truth))
		}
	}
}

// score evaluates a prediction against (possibly thinned) truth.
func score(d *model.Dataset, pred map[model.PairKey]bool, rps []model.RolePair, keep float64) eval.Quality {
	truth := combinedTruth(d, rps)
	if keep < 1 {
		truth = dataset.BiasTruth(d, truth, keep)
	}
	return eval.QualityOf(eval.Compare(filterRolePairs(d, pred, rps), truth))
}

// Table3 prints the ablation analysis on IOS: full SNAPS and each technique
// removed in turn, for Bp-Bp and Bp-Dp.
func Table3(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 3: ablation analysis on IOS")
	p := dataset.Generate(dataset.IOS().Scaled(opt.Scale))
	d := p.Dataset

	variants := []struct {
		name string
		mod  func(*er.Config)
	}{
		{"SNAPS", func(c *er.Config) {}},
		{"without PROP", func(c *er.Config) { c.Propagation = false }},
		{"without AMB", func(c *er.Config) { c.Ambiguity = false }},
		{"without REL", func(c *er.Config) { c.Relations = false }},
		{"without REF", func(c *er.Config) { c.Refinement = false }},
	}
	type row struct {
		name       string
		bpbp, bpdp eval.Quality
	}
	var rows []row
	for _, v := range variants {
		cfg := er.DefaultConfig()
		v.mod(&cfg)
		pr := er.Run(d, depgraph.DefaultConfig(), cfg)
		rows = append(rows, row{
			name: v.name,
			bpbp: score(d, combinedPred(pr.Result.Store, BpBp), BpBp, 1),
			bpdp: score(d, combinedPred(pr.Result.Store, BpDp), BpDp, opt.TruthKeepBpDpIOS),
		})
	}
	fmt.Fprintf(w, "%-14s | %-28s | %-28s\n", "Variant", "Bp-Bp (P R F*)", "Bp-Dp (P R F*)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s | %7.2f %7.2f %7.2f      | %7.2f %7.2f %7.2f\n",
			r.name, r.bpbp.Precision, r.bpbp.Recall, r.bpbp.FStar,
			r.bpdp.Precision, r.bpdp.Recall, r.bpdp.FStar)
	}
}

// Table4 prints the linkage-quality comparison of SNAPS against the four
// baselines on IOS and KIL for Bp-Bp and Bp-Dp.
func Table4(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 4: linkage quality of SNAPS versus baselines")
	for _, ds := range []struct {
		cfg  dataset.Config
		keep float64
	}{
		{dataset.IOS().Scaled(opt.Scale), opt.TruthKeepBpDpIOS},
		{dataset.KIL().Scaled(opt.Scale), opt.TruthKeepBpDpKIL},
	} {
		p := dataset.Generate(ds.cfg)
		d := p.Dataset
		cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, d.RecordIDs())
		pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())

		// The unsupervised baselines do not depend on the role-pair group,
		// and they read only the graph's configuration and its nodes'
		// endpoints: each runs once per data set, on the graph SNAPS
		// resolved.
		attr := baseline.AttrSim(d, cands)
		dep := baseline.DepGraph(d, pr.Graph)
		rel := baseline.RelCluster(d, pr.Graph)

		for _, grp := range []struct {
			name string
			rps  []model.RolePair
			keep float64
		}{
			{"Bp-Bp", BpBp, 1},
			{"Bp-Dp", BpDp, ds.keep},
		} {
			fmt.Fprintf(w, "%s (%s):\n", ds.cfg.Name, grp.name)
			for _, m := range []struct {
				name string
				pred map[model.PairKey]bool
			}{
				{"SNAPS", combinedPred(pr.Result.Store, grp.rps)},
				{"Attr-Sim", attr},
				{"Dep-Graph", combinedPred(dep, grp.rps)},
				{"Rel-Cluster", combinedPred(rel, grp.rps)},
			} {
				fmt.Fprintf(w, "  %-12s %v\n", m.name, score(d, m.pred, grp.rps, grp.keep))
			}

			mp, ms := magellan(d, cands, grp.rps)
			fmt.Fprintf(w, "  %-12s P=%.1f±%.1f R=%.1f±%.1f F*=%.1f±%.1f\n",
				"Magellan", mp[0], ms[0], mp[1], ms[1], mp[2], ms[2])
		}
	}
}

// magellan runs the supervised baseline in the paper's two regimes across
// the four classifiers, returning means and standard deviations of P, R, F*.
func magellan(d *model.Dataset, cands []blocking.Candidate, rps []model.RolePair) (mean, std [3]float64) {
	pairs := make([][2]model.RecordID, len(cands))
	for i, c := range cands {
		pairs[i] = [2]model.RecordID{c.A, c.B}
	}
	train, test := mlmatch.SplitPairs(d, pairs, 0.5, 11)
	var testRP []mlmatch.LabelledPair
	for _, rp := range rps {
		testRP = append(testRP, mlmatch.FilterRolePair(d, test, rp)...)
	}
	var trainRP []mlmatch.LabelledPair
	for _, rp := range rps {
		trainRP = append(trainRP, mlmatch.FilterRolePair(d, train, rp)...)
	}
	var ps, rs, fs []float64
	for _, regime := range []mlmatch.Regime{mlmatch.RolePairSpecific, mlmatch.AllRolePairs} {
		trainSet := trainRP
		if regime == mlmatch.AllRolePairs {
			trainSet = train
		}
		examples := mlmatch.Examples(d, trainSet)
		for _, tr := range mlmatch.DefaultTrainers() {
			c := tr.Train(examples)
			pred := mlmatch.Predict(d, c, testRP)
			q := eval.QualityOf(eval.Compare(pred, mlmatch.TruthOf(testRP)))
			ps = append(ps, q.Precision)
			rs = append(rs, q.Recall)
			fs = append(fs, q.FStar)
		}
	}
	mean[0], std[0] = eval.MeanStd(ps)
	mean[1], std[1] = eval.MeanStd(rs)
	mean[2], std[2] = eval.MeanStd(fs)
	return mean, std
}

// Table5 prints offline runtimes of SNAPS and the baselines together with
// the dependency-graph sizes |N_A| and |N_R|.
func Table5(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 5: offline runtimes (seconds)")
	fmt.Fprintf(w, "%-8s %10s %10s %9s %9s %10s %12s %10s\n",
		"Dataset", "|N_A|", "|N_R|", "SNAPS", "Attr-Sim", "Dep-Graph", "Rel-Cluster", "Magellan")
	for _, cfg := range []dataset.Config{dataset.IOS().Scaled(opt.Scale), dataset.KIL().Scaled(opt.Scale)} {
		p := dataset.Generate(cfg)
		d := p.Dataset
		ids := d.RecordIDs()
		cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, ids)

		pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
		snapsTime := pr.Total()

		// Baselines are timed through the shared Stage API, so the table's
		// numbers and the snaps_stage_seconds series agree by construction.
		st := obs.StartStage("baseline_attr_sim")
		baseline.AttrSim(d, cands)
		attrTime := st.Stop()

		// Both graph baselines run on the graph SNAPS resolved.
		st = obs.StartStage("baseline_dep_graph")
		baseline.DepGraph(d, pr.Graph)
		depTime := st.Stop()

		st = obs.StartStage("baseline_rel_cluster")
		baseline.RelCluster(d, pr.Graph)
		relTime := st.Stop()

		st = obs.StartStage("baseline_magellan")
		magellan(d, cands, BpBp)
		magTime := st.Stop()

		fmt.Fprintf(w, "%-8s %10d %10d %9.2f %9.2f %10.2f %12.2f %10.2f\n",
			cfg.Name, len(pr.Graph.Atomics), len(pr.Graph.Nodes),
			snapsTime.Seconds(), attrTime.Seconds(), depTime.Seconds(),
			relTime.Seconds(), magTime.Seconds())
	}
}

// Table6 prints the scalability experiment: growing BHIC time windows,
// graph sizes, per-phase runtimes, and linkage time per node and edge.
func Table6(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 6: scalability on BHIC windows")
	fmt.Fprintf(w, "%-12s %10s %10s %9s %9s %10s %9s %11s %11s\n",
		"Period", "Nodes", "Edges", "GenNA(s)", "GenNR(s)", "Boot(s)", "Merge(s)", "ms/node", "ms/edge")
	for _, startYear := range []int{1900, 1890, 1880, 1870} {
		cfg := dataset.BHIC(startYear).Scaled(opt.Scale)
		p := dataset.Generate(cfg)
		d := p.Dataset
		pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())

		nodes := len(pr.Graph.Atomics) + len(pr.Graph.Nodes)
		edges := 0
		for i := range pr.Graph.Nodes {
			edges += len(pr.Graph.Nodes[i].Neighbours)
		}
		edges /= 2
		linkage := pr.Result.Timings.Bootstrap + pr.Result.Timings.Merge
		msPerNode := float64(linkage.Milliseconds()) / float64(maxInt(nodes, 1))
		msPerEdge := float64(linkage.Milliseconds()) / float64(maxInt(edges, 1))
		fmt.Fprintf(w, "%-12s %10d %10d %9.2f %9.2f %10.2f %9.2f %11.4f %11.4f\n",
			fmt.Sprintf("%d-1935", startYear), nodes, edges,
			pr.GenAtomic.Seconds(), pr.GenRelational.Seconds(),
			pr.Result.Timings.Bootstrap.Seconds(), pr.Result.Timings.Merge.Seconds(),
			msPerNode, msPerEdge)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table7 prints the online latency distribution for querying and pedigree
// extraction over a workload of queries drawn from the data itself.
func Table7(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Table 7: query and pedigree extraction latency (seconds)")
	p := dataset.Generate(dataset.IOS().Scaled(opt.Scale))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(p.Dataset, pr.Result.Store)
	k, s := index.Build(g, index.SimThreshold)
	engine := query.NewEngine(g, k, s)

	var queryTimes, pedTimes []time.Duration
	n := 0
	for i := range g.Nodes {
		node := &g.Nodes[i]
		if len(node.FirstNames) == 0 || len(node.Surnames) == 0 {
			continue
		}
		n++
		if n > 200 {
			break
		}
		t0 := time.Now()
		results := engine.Search(query.Query{
			FirstName: node.FirstNames[0], Surname: node.Surnames[0],
		})
		queryTimes = append(queryTimes, time.Since(t0))
		if len(results) == 0 {
			continue
		}
		t0 = time.Now()
		g.Extract(results[0].Entity, 2)
		pedTimes = append(pedTimes, time.Since(t0))
	}
	printLatencies(w, "Querying", queryTimes)
	printLatencies(w, "Pedigree extraction", pedTimes)
}

func printLatencies(w io.Writer, label string, ts []time.Duration) {
	if len(ts) == 0 {
		fmt.Fprintf(w, "%-22s no samples\n", label)
		return
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	var sum time.Duration
	for _, t := range ts {
		sum += t
	}
	fmt.Fprintf(w, "%-22s min=%.6f avg=%.6f median=%.6f max=%.6f (n=%d)\n",
		label,
		ts[0].Seconds(), (sum / time.Duration(len(ts))).Seconds(),
		ts[len(ts)/2].Seconds(), ts[len(ts)-1].Seconds(), len(ts))
}

// Figure7 renders an example family pedigree as text, standing in for the
// tree visualisations of Figs. 7-8.
func Figure7(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Figures 7-8: example family pedigree renderings")
	p := dataset.Generate(dataset.IOS().Scaled(opt.Scale))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(p.Dataset, pr.Result.Store)
	// Pick the best-connected entity for an interesting tree.
	best, bestEdges := pedigree.NodeID(0), -1
	for i := range g.Nodes {
		if len(g.Nodes[i].Edges) > bestEdges {
			best, bestEdges = g.Nodes[i].ID, len(g.Nodes[i].Edges)
		}
	}
	ped := g.Extract(best, 2)
	fmt.Fprint(w, g.RenderText(ped))
}

// Sensitivity sweeps the merge threshold t_m and the similarity weighting
// γ on IOS Bp-Bp, reproducing the parameter sensitivity analysis the paper
// publishes on the SNAPS web site.
func Sensitivity(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Parameter sensitivity on IOS (Bp-Bp)")
	p := dataset.Generate(dataset.IOS().Scaled(opt.Scale))
	d := p.Dataset

	fmt.Fprintln(w, "sweep of merge threshold t_m (γ=0.6):")
	for _, tm := range []float64{0.75, 0.80, 0.85, 0.90, 0.95} {
		cfg := er.DefaultConfig()
		cfg.MergeThreshold = tm
		pr := er.Run(d, depgraph.DefaultConfig(), cfg)
		q := score(d, combinedPred(pr.Result.Store, BpBp), BpBp, 1)
		fmt.Fprintf(w, "  t_m=%.2f  %v\n", tm, q)
	}
	fmt.Fprintln(w, "sweep of γ (t_m=0.85):")
	for _, gamma := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 1.0} {
		cfg := er.DefaultConfig()
		cfg.Gamma = gamma
		pr := er.Run(d, depgraph.DefaultConfig(), cfg)
		q := score(d, combinedPred(pr.Result.Store, BpBp), BpBp, 1)
		fmt.Fprintf(w, "  γ=%.2f    %v\n", gamma, q)
	}
}

// Census runs the census-integration extension (the paper's future work,
// Sec. 12): decennial household enumerations are added to the IOS data set
// and the quality of vital-to-census links is reported alongside the
// vital-only quality, showing how the extra relationship evidence affects
// the core role pairs.
func Census(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Census integration (future-work extension)")
	base := dataset.IOS().Scaled(opt.Scale)
	withCensus := base.WithCensus()

	for _, cfg := range []dataset.Config{base, withCensus} {
		p := dataset.Generate(cfg)
		d := p.Dataset
		label := "vital records only"
		if len(cfg.CensusYears) > 0 {
			label = fmt.Sprintf("with %d censuses", len(cfg.CensusYears))
		}
		pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
		fmt.Fprintf(w, "%s (%d records):\n", label, len(d.Records))
		q := score(d, combinedPred(pr.Result.Store, BpBp), BpBp, 1)
		fmt.Fprintf(w, "  %-28s %v\n", "Bp-Bp", q)
		if len(cfg.CensusYears) > 0 {
			censusPairs := []model.RolePair{
				model.MakeRolePair(model.Bm, model.Cm),
				model.MakeRolePair(model.Bf, model.Cf),
			}
			q = score(d, combinedPred(pr.Result.Store, censusPairs), censusPairs, 1)
			fmt.Fprintf(w, "  %-28s %v\n", "birth-parent to census-head", q)
			var childPairs []model.RolePair
			for _, cc := range model.CensusChildRoles {
				childPairs = append(childPairs, model.MakeRolePair(model.Bb, cc))
			}
			q = score(d, combinedPred(pr.Result.Store, childPairs), childPairs, 1)
			fmt.Fprintf(w, "  %-28s %v\n", "baby to census-child", q)
		}
	}
}

// Blocking reports the standard blocking-quality measures (pair
// completeness over the Bp-Bp truth, reduction ratio, candidate count) for
// several LSH configurations, grounding the banding choice of DESIGN.md §3.
func Blocking(w io.Writer, opt Options) {
	fmt.Fprintln(w, "Blocking quality on IOS (Bp-Bp truth)")
	p := dataset.Generate(dataset.IOS().Scaled(opt.Scale))
	d := p.Dataset
	ids := d.RecordIDs()
	truth := combinedTruth(d, BpBp)
	fmt.Fprintf(w, "%-22s %12s %10s %10s\n", "Config", "Candidates", "PC", "RR")
	score := func(label string, cands []blocking.Candidate) {
		candSet := make(map[model.PairKey]bool, len(cands))
		for _, c := range cands {
			candSet[model.MakePairKey(c.A, c.B)] = true
		}
		m := eval.CompareBlocking(candSet, truth, len(ids))
		fmt.Fprintf(w, "%-22s %12d %10.4f %10.4f\n",
			label, m.Candidates, m.PairCompleteness, m.ReductionRatio)
	}
	for _, cfg := range []blocking.LSHConfig{
		{Bands: 4, Rows: 8, MaxBlockSize: 400},
		{Bands: 8, Rows: 4, MaxBlockSize: 400},
		{Bands: 16, Rows: 2, MaxBlockSize: 400},
	} {
		score(fmt.Sprintf("lsh bands=%d rows=%d", cfg.Bands, cfg.Rows),
			blocking.NewLSH(cfg).Pairs(d, ids))
	}
}

// Run dispatches an experiment id to its implementation. It reports whether
// the id was recognised.
func Run(w io.Writer, id string, opt Options) bool {
	switch id {
	case "sensitivity":
		Sensitivity(w, opt)
	case "census":
		Census(w, opt)
	case "blocking":
		Blocking(w, opt)
	case "table1":
		Table1(w, opt)
	case "figure2":
		Figure2(w, opt)
	case "table2":
		Table2(w, opt)
	case "table3":
		Table3(w, opt)
	case "table4":
		Table4(w, opt)
	case "table5":
		Table5(w, opt)
	case "table6":
		Table6(w, opt)
	case "table7":
		Table7(w, opt)
	case "figure7", "figure8", "figure7-8":
		Figure7(w, opt)
	default:
		return false
	}
	return true
}

// All lists the experiment ids in paper order, followed by the extension
// experiments (parameter sensitivity, census integration, LSH banding).
func All() []string {
	return []string{
		"table1", "figure2", "table2", "table3", "table4", "table5",
		"table6", "table7", "figure7-8", "sensitivity", "census",
		"blocking",
	}
}
