// Package report renders a complete linkage-quality report for one
// resolution run as Markdown: data-set profile, blocking quality, pairwise
// and cluster-level measures per role pair, cluster-size distribution, and
// the offline timing breakdown. Deployments attach the report to each
// linkage release; the evaluation harness uses it for eyeballing runs.
package report

import (
	"fmt"
	"io"
	"sort"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/eval"
	"github.com/snaps/snaps/internal/model"
)

// Input bundles everything a report covers. Truth-dependent sections are
// skipped when the data set has no ground truth.
type Input struct {
	Dataset  *model.Dataset
	Pipeline *er.PipelineResult
	// RolePairs to evaluate pairwise quality on; nil selects the paper's
	// Bp-Bp and Bp-Dp groups.
	RolePairs []model.RolePair
}

// defaultRolePairs are the evaluation role pairs of the paper.
func defaultRolePairs() []model.RolePair {
	return []model.RolePair{
		model.MakeRolePair(model.Bm, model.Bm),
		model.MakeRolePair(model.Bf, model.Bf),
		model.MakeRolePair(model.Bm, model.Dm),
		model.MakeRolePair(model.Bf, model.Df),
		model.MakeRolePair(model.Bb, model.Dd),
	}
}

// hasTruth reports whether any record carries ground truth.
func hasTruth(d *model.Dataset) bool {
	for i := range d.Records {
		if d.Records[i].Truth != model.NoPerson {
			return true
		}
	}
	return false
}

// Write renders the report.
func Write(w io.Writer, in Input) {
	d := in.Dataset
	pr := in.Pipeline
	fmt.Fprintf(w, "# Linkage report — %s\n\n", d.Name)

	// Data set profile.
	fmt.Fprintf(w, "## Data set\n\n")
	counts := map[model.CertType]int{}
	for i := range d.Certificates {
		counts[d.Certificates[i].Type]++
	}
	fmt.Fprintf(w, "- certificates: %d (births %d, deaths %d, marriages %d, censuses %d)\n",
		len(d.Certificates), counts[model.Birth], counts[model.Death],
		counts[model.Marriage], counts[model.Census])
	fmt.Fprintf(w, "- person records: %d\n", len(d.Records))
	st := dataset.ComputeStats(d, model.Dd)
	fmt.Fprintf(w, "- deceased-person records: %d (occupation missing for %d)\n\n",
		st.Records, st.PerAttr[model.Occupation].Missing)

	// Pipeline scale and timings.
	fmt.Fprintf(w, "## Offline pipeline\n\n")
	fmt.Fprintf(w, "| phase | value |\n|---|---|\n")
	fmt.Fprintf(w, "| blocking candidates | %d |\n", pr.Candidates)
	fmt.Fprintf(w, "| atomic nodes | %d |\n", len(pr.Graph.Atomics))
	fmt.Fprintf(w, "| relational nodes | %d |\n", len(pr.Graph.Nodes))
	fmt.Fprintf(w, "| node groups | %d |\n", len(pr.Graph.Groups))
	fmt.Fprintf(w, "| merged nodes | %d |\n", pr.Result.MergedNodes)
	fmt.Fprintf(w, "| refine removals / splits | %d / %d |\n", pr.Result.RefineRemoved, pr.Result.RefineSplits)
	fmt.Fprintf(w, "| blocking time | %v |\n", pr.Blocking)
	fmt.Fprintf(w, "| graph build time | %v |\n", pr.GenAtomic+pr.GenRelational)
	fmt.Fprintf(w, "| bootstrap time | %v |\n", pr.Result.Timings.Bootstrap)
	fmt.Fprintf(w, "| merge time | %v |\n", pr.Result.Timings.Merge)
	fmt.Fprintf(w, "| refine time | %v |\n", pr.Result.Timings.Refine)
	fmt.Fprintf(w, "| resolution, wall clock | %v |\n", pr.Resolve)
	fmt.Fprintf(w, "| total, wall clock | %v |\n\n", pr.Total())

	// Cluster size distribution.
	fmt.Fprintf(w, "## Clusters\n\n")
	sizes := pr.Result.Store.ClusterSizes()
	hist := map[int]int{}
	for _, s := range sizes {
		hist[bucket(s)]++
	}
	fmt.Fprintf(w, "- entities (non-singleton): %d\n", len(sizes))
	var buckets []int
	for b := range hist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	for _, b := range buckets {
		fmt.Fprintf(w, "- size %s: %d\n", bucketLabel(b), hist[b])
	}
	if len(sizes) > 0 {
		fmt.Fprintf(w, "- largest cluster: %d records\n", sizes[0])
	}
	fmt.Fprintln(w)

	if !hasTruth(d) {
		fmt.Fprintf(w, "## Quality\n\n(no ground truth available)\n")
		return
	}

	// Pairwise quality per role pair.
	fmt.Fprintf(w, "## Pairwise quality\n\n")
	fmt.Fprintf(w, "| role pair | truth pairs | P | R | F* |\n|---|---|---|---|---|\n")
	rps := in.RolePairs
	if rps == nil {
		rps = defaultRolePairs()
	}
	for _, rp := range rps {
		truth := d.TruePairs(rp)
		if len(truth) == 0 {
			continue
		}
		q := eval.QualityOf(eval.Compare(pr.Result.Store.MatchPairs(rp), truth))
		fmt.Fprintf(w, "| %v | %d | %.2f | %.2f | %.2f |\n",
			rp, len(truth), q.Precision, q.Recall, q.FStar)
	}
	fmt.Fprintln(w)

	// Cluster-level quality.
	fmt.Fprintf(w, "## Cluster quality\n\n")
	var clusters [][]model.RecordID
	for _, e := range pr.Result.Store.Entities() {
		clusters = append(clusters, pr.Result.Store.Records(e))
	}
	cm := eval.CompareClusters(eval.PartitionFromClusters(clusters), eval.TruthPartition(d))
	fmt.Fprintf(w, "- closest-cluster F1: %.4f\n", cm.ClosestClusterF1)
	fmt.Fprintf(w, "- truth clusters reproduced exactly: %.1f%%\n", 100*cm.ExactMatchFraction)
	fmt.Fprintf(w, "- variation of information: %.3f bits\n", cm.VariationOfInformation)
	fmt.Fprintf(w, "- clusters produced / in truth: %d / %d\n", cm.ProducedClusters, cm.TruthClusters)
}

// bucket groups cluster sizes for the histogram: 2, 3-5, 6-10, 11-20, 21+.
func bucket(n int) int {
	switch {
	case n <= 2:
		return 0
	case n <= 5:
		return 1
	case n <= 10:
		return 2
	case n <= 20:
		return 3
	default:
		return 4
	}
}

func bucketLabel(b int) string {
	switch b {
	case 0:
		return "2"
	case 1:
		return "3-5"
	case 2:
		return "6-10"
	case 3:
		return "11-20"
	default:
		return "21+"
	}
}
