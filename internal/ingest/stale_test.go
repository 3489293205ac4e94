package ingest

import (
	"fmt"
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

// TestStaleServeNamesCurrentEntities pins what a stale-served row means:
// the person ranked before the flush, named by the entity that holds them
// in the graph the answer is rendered with. A flush renumbers most
// entities, so a row that kept its old entity id would name someone else.
// Every first post-flush search is stale; each of its rows must be a
// pre-flush row, in order, whose anchor record (the entity's lowest) the
// served entity contains, and no entity may be listed twice.
func TestStaleServeNamesCurrentEntities(t *testing.T) {
	d := scaleDataset(2000, 0)
	st := er.RunLSH(d, blocking.ScaleLSHConfig(), depgraph.DefaultConfig(), er.DefaultConfig()).Result.Store
	batch := holdoutCerts(16)
	stale := obs.Default.Counter("snaps_query_cache_stale_serves_total", "")
	for _, nshards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			cfg := manualConfig()
			cfg.QueryCache = DefaultQueryCache
			cfg.StaleServe = true
			p, err := NewPipeline(NewServing(d, st, nshards, cfg), nil, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			before := p.Serving()
			var qs []query.Query
			seen := map[query.Query]bool{}
			for i := range before.Graph.Nodes {
				n := &before.Graph.Nodes[i]
				if len(n.FirstNames) == 0 || len(n.Surnames) == 0 {
					continue
				}
				q := query.Query{FirstName: n.FirstNames[0], Surname: n.Surnames[0]}
				if len(qs) < 120 && !seen[q] {
					seen[q] = true
					qs = append(qs, q)
				}
			}
			if len(qs) < 100 {
				t.Fatalf("only %d distinct name queries to warm", len(qs))
			}
			type row struct {
				anchor model.RecordID
				score  float64
			}
			warm := make([][]row, len(qs))
			for i, q := range qs {
				for _, r := range before.Shards.Search(q) {
					warm[i] = append(warm[i], row{slices.Min(before.Graph.Node(r.Entity).Records), r.Score})
				}
			}

			for _, c := range batch {
				if err := p.Submit(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			after := p.Serving()
			moved := 0
			for i := range before.Graph.Nodes {
				if i >= len(after.Graph.Nodes) || !slices.Equal(before.Graph.Nodes[i].Records, after.Graph.Nodes[i].Records) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("the flush renumbered no entity; the test shows nothing")
			}

			staleBefore := stale.Value()
			for i, q := range qs {
				got := after.Shards.Search(q)
				listed := map[pedigree.NodeID]bool{}
				j := 0
				for _, r := range got {
					if listed[r.Entity] {
						t.Fatalf("query %+v: entity %d listed twice", q, r.Entity)
					}
					listed[r.Entity] = true
					recs := after.Graph.Node(r.Entity).Records
					for j < len(warm[i]) && !(slices.Contains(recs, warm[i][j].anchor) && warm[i][j].score == r.Score) {
						j++
					}
					if j == len(warm[i]) {
						t.Fatalf("query %+v: stale row (entity %d, score %v) is no pre-flush row's person; %d of %d ids moved",
							q, r.Entity, r.Score, moved, len(before.Graph.Nodes))
					}
					j++
				}
			}
			if got := stale.Value() - staleBefore; got != int64(len(qs)) {
				t.Fatalf("%d of %d post-flush searches were stale-served", got, len(qs))
			}
		})
	}
}
