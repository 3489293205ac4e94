package er_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/store"
)

// TestRefineKeepsRestoredClusters pins what lets the partitioned resolver
// pass through a prior entity no new record reaches: REF leaves a restored
// cluster alone. Restore makes every cluster a clique — density 1, and no
// bridge however large — so Refine at the default t_d and t_n removes no
// record and splits nothing, a cluster over BridgeSplitSize included.
func TestRefineKeepsRestoredClusters(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	cfg := er.DefaultConfig()
	clusters := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), cfg).Result.Store.Clusters()
	large := slices.ContainsFunc(clusters, func(c []model.RecordID) bool { return len(c) > er.BridgeSplitSize })
	if !large {
		// Fold the smallest clusters into one past the split size.
		sort.SliceStable(clusters, func(i, j int) bool { return len(clusters[i]) < len(clusters[j]) })
		var big []model.RecordID
		for len(big) <= er.BridgeSplitSize {
			big = append(big, clusters[0]...)
			clusters = clusters[1:]
		}
		clusters = append(clusters, big)
	}
	st := (&store.Snapshot{Dataset: d, Clusters: clusters}).Restore()
	before := st.Clusters()
	removed, splits := st.Refine(er.DensityThreshold, er.BridgeSplitSize)
	if removed != 0 || splits != 0 {
		t.Fatalf("Refine removed %d records and made %d splits in restored clusters", removed, splits)
	}
	if after := st.Clusters(); !reflect.DeepEqual(after, before) {
		t.Fatal("Refine changed the restored clusters")
	}
}

// TestChainedExtendMatchesSerial runs the flush cycle eight times at DS-3k
// — restore the previous clusters, Extend by 16 certificates, build the
// pedigree graph — through the serial reference (er.ResolveSerial) and
// through Extend at GOMAXPROCS 1 and 4, whose partitioned resolver passes
// untouched prior entities through. After every flush all must hold the
// same clusters and the same pedigree nodes; only the enumeration order
// may differ from the reference's.
func TestChainedExtendMatchesSerial(t *testing.T) {
	base, clusters := servedTier(3000)
	holdout := holdoutTier()
	const flushes, perFlush = 8, 16
	if len(holdout.Certificates) < flushes*perFlush {
		t.Fatalf("hold-out tier has %d certificates, want %d", len(holdout.Certificates), flushes*perFlush)
	}
	// procs 0 is the serial reference.
	chain := func(procs int) (clusterSets, nodeSets []string) {
		if procs > 0 {
			partest.WithProcs(t, procs)
		}
		d, prev := base, clusters
		for f := 0; f < flushes; f++ {
			d = d.Clone()
			firstNew := model.RecordID(len(d.Records))
			for i := f * perFlush; i < (f+1)*perFlush; i++ {
				appendCert(d, holdout, &holdout.Certificates[i])
			}
			st := (&store.Snapshot{Dataset: d, Clusters: prev}).Restore()
			if procs == 0 {
				er.ResolveSerial(d, blocking.DefaultLSHConfig(), st, firstNew)
			} else if pr := er.Extend(d, st, firstNew, depgraph.DefaultConfig(), er.DefaultConfig()); pr.Candidates == 0 {
				t.Fatalf("procs=%d flush %d: no candidate touches the batch", procs, f)
			}
			prev = st.Clusters()
			var nodes [][]model.RecordID
			for _, n := range pedigree.Build(d, st).Nodes {
				nodes = append(nodes, n.Records)
			}
			clusterSets = append(clusterSets, canonical(prev))
			nodeSets = append(nodeSets, canonical(nodes))
		}
		return clusterSets, nodeSets
	}
	wantClusters, wantNodes := chain(0)
	for _, procs := range []int{1, 4} {
		gotClusters, gotNodes := chain(procs)
		for f := range wantClusters {
			if gotClusters[f] != wantClusters[f] {
				t.Fatalf("procs=%d flush %d: clusters differ from the serial reference's", procs, f)
			}
			if gotNodes[f] != wantNodes[f] {
				t.Fatalf("procs=%d flush %d: pedigree nodes differ from the serial reference's", procs, f)
			}
		}
	}
}

// BenchmarkExtendFlush measures the er.Extend of one ingest flush: a DS-4k
// corpus's clusters restored as cliques, 16 new certificates. blocking-ms
// and resolve-ms split the call; the rest of ns/op is graph construction.
//
//	go test -run '^$' -bench ExtendFlush -benchtime 20x ./internal/er
func BenchmarkExtendFlush(b *testing.B) {
	base, clusters := servedTier(4000)
	holdout := holdoutTier()
	d := base.Clone()
	firstNew := model.RecordID(len(d.Records))
	for i := 0; i < 16; i++ {
		appendCert(d, holdout, &holdout.Certificates[i])
	}
	var blockingT, resolveT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := (&store.Snapshot{Dataset: d, Clusters: clusters}).Restore()
		b.StartTimer()
		pr := er.Extend(d, st, firstNew, depgraph.DefaultConfig(), er.DefaultConfig())
		blockingT += pr.Blocking
		resolveT += pr.Resolve
	}
	perOp := func(t time.Duration) float64 { return t.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(blockingT), "blocking-ms")
	b.ReportMetric(perOp(resolveT), "resolve-ms")
}

// servedTier is a DS tier and the clusters of its build under the scale
// profile, as a server would hold them.
func servedTier(certs int) (*model.Dataset, [][]model.RecordID) {
	d := dataset.GenerateScale(dataset.ScaleTier(certs)).Dataset
	return d, er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store.Clusters()
}

// holdoutTier is a differently seeded DS tier: certificates a served tier
// has not seen, drawn from the same name pools.
func holdoutTier() *model.Dataset {
	cfg := dataset.ScaleTier(200)
	cfg.Seed++
	return dataset.GenerateScale(cfg).Dataset
}

// appendCert appends a certificate of src, and its records, to d under
// fresh ids, roles in role order.
func appendCert(d, src *model.Dataset, c *model.Certificate) {
	nc := *c
	nc.ID = model.CertID(len(d.Certificates))
	nc.Roles = make(map[model.Role]model.RecordID, len(c.Roles))
	for role := model.Role(0); role < model.NumRoles; role++ {
		id, ok := c.Roles[role]
		if !ok || id < 0 {
			continue
		}
		rec := *src.Record(id)
		rec.ID, rec.Cert, rec.Truth = model.RecordID(len(d.Records)), nc.ID, model.NoPerson
		d.Records = append(d.Records, rec)
		nc.Roles[role] = rec.ID
	}
	d.Certificates = append(d.Certificates, nc)
}

// canonical renders record sets order-free: ids sorted within a set, sets
// sorted.
func canonical(sets [][]model.RecordID) string {
	out := make([]string, len(sets))
	for i, s := range sets {
		s = slices.Clone(s)
		slices.Sort(s)
		out[i] = fmt.Sprint(s)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}
