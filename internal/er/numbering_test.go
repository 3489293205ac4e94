package er_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/store"
)

// TestNumberingIndependentOfProcs pins what the online tool names results
// and pedigrees by: the entity numbering. A full build (Run on IOS, RunLSH
// on DS-3k) and one 16-certificate Extend over a restored DS-3k build must
// give, at GOMAXPROCS 1, 2 and 4, the same clusters in the same order, the
// same pedigree nodes in the same order and the same snapshot bytes.
func TestNumberingIndependentOfProcs(t *testing.T) {
	ios := dataset.Generate(dataset.IOS().Scaled(0.04)).Dataset
	ds, clusters := servedTier(3000)
	holdout := holdoutTier()
	extended := ds.Clone()
	firstNew := model.RecordID(len(extended.Records))
	for i := 0; i < 16; i++ {
		appendCert(extended, holdout, &holdout.Certificates[i])
	}
	cases := []struct {
		name    string
		resolve func() (*model.Dataset, *er.EntityStore)
	}{
		{"run-ios-0.04", func() (*model.Dataset, *er.EntityStore) {
			d := ios.Clone()
			return d, er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
		}},
		{"runlsh-ds-3k", func() (*model.Dataset, *er.EntityStore) {
			d := ds.Clone()
			return d, er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
		}},
		{"extend-ds-3k-16", func() (*model.Dataset, *er.EntityStore) {
			d := extended.Clone()
			st := (&store.Snapshot{Dataset: d, Clusters: clusters}).Restore()
			er.Extend(d, st, firstNew, depgraph.DefaultConfig(), er.DefaultConfig())
			return d, st
		}},
	}
	type output struct {
		clusters, nodes [][]model.RecordID
		snapshot        []byte
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want output
			for _, procs := range []int{1, 2, 4} {
				partest.WithProcs(t, procs)
				d, st := c.resolve()
				got := output{clusters: st.Clusters()}
				for _, n := range pedigree.Build(d, st).Nodes {
					got.nodes = append(got.nodes, n.Records)
				}
				var buf bytes.Buffer
				if err := store.Write(&buf, store.FromResult(d, st)); err != nil {
					t.Fatal(err)
				}
				got.snapshot = buf.Bytes()
				if procs == 1 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got.clusters, want.clusters) {
					t.Errorf("procs=%d: the ordered clusters differ from procs=1's", procs)
				}
				if !reflect.DeepEqual(got.nodes, want.nodes) {
					t.Errorf("procs=%d: the pedigree nodes' record lists differ from procs=1's", procs)
				}
				if !bytes.Equal(got.snapshot, want.snapshot) {
					t.Errorf("procs=%d: the snapshot bytes differ from procs=1's", procs)
				}
			}
		})
	}
}
