// External tests of the decisions Advance makes once per flush: one
// classification of the new graph for every shard (what it calls clean),
// and the choice between patching the touched shards and rebuilding them.
package shard_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/ingest"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/shard"
)

// grownGraph partitions the seed case into four shards, flushes the batch
// through an ingest pipeline, and returns the coordinator of the seed
// generation with the grown graph, ready for a direct Advance.
func grownGraph(t *testing.T, batch []*ingest.Certificate) (*shard.Coordinator, *pedigree.Graph) {
	t.Helper()
	d, st, _ := builtCase(t, 0.03)
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 1 << 20 // flush only when the test says so
	cfg.MaxAge = time.Hour
	sv := ingest.NewServing(d, st, 4, cfg)
	pipe, err := ingest.NewPipeline(sv, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for _, c := range batch {
		if err := pipe.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	return sv.Shards, pipe.Serving().Graph
}

// novelCerts returns n birth certificates of three people each whose names
// no other certificate shares, so every one adds three entities.
func novelCerts(n int) []*ingest.Certificate {
	var out []*ingest.Certificate
	for i := 0; i < n; i++ {
		sur := fmt.Sprintf("quixworth%c%c", 'a'+i/26, 'a'+i%26)
		out = append(out, growCert([2]string{"zebedee", sur}, [2]string{"barnabus", sur}, [2]string{"philomena", sur}, 1891))
	}
	return out
}

// TestClassifyInvariants pins what Advance relies on in the one whole-graph
// classification: a node carrying a new record is dirty, and a previous
// node maps only to a clean node with the same number of records.
func TestClassifyInvariants(t *testing.T) {
	d, _, _ := builtCase(t, 0.03)
	r0, r1 := &d.Records[0], &d.Records[len(d.Records)/2]
	// One certificate reuses names the corpus has, one is all new names.
	c, newG := grownGraph(t, append(novelCerts(1),
		growCert([2]string{r0.FirstName(), r0.Surname()},
			[2]string{r1.FirstName(), r1.Surname()},
			[2]string{r1.FirstName(), r0.Surname()}, 1890)))
	prevG := c.Graph()
	oldToNew, isDirty, dirty := shard.Classify(newG, prevG)
	if dirty == 0 {
		t.Fatal("growth produced no dirty nodes")
	}
	if len(oldToNew) != len(prevG.Nodes) || len(isDirty) != len(newG.Nodes) {
		t.Fatalf("classification sized %d/%d, graphs %d/%d",
			len(oldToNew), len(isDirty), len(prevG.Nodes), len(newG.Nodes))
	}
	prevRecs := model.RecordID(len(prevG.Dataset.Records))
	for i := range newG.Nodes {
		n := &newG.Nodes[i]
		for _, r := range n.Records {
			if r >= prevRecs && !isDirty[i] {
				t.Fatalf("node %d carries new record %d but is not dirty", i, r)
			}
		}
	}
	for j, nid := range oldToNew {
		if nid < 0 {
			continue
		}
		if isDirty[nid] {
			t.Fatalf("prev node %d maps to dirty node %d", j, nid)
		}
		if len(prevG.Nodes[j].Records) != len(newG.Node(nid).Records) {
			t.Fatalf("prev node %d mapped to node %d with a different record set", j, nid)
		}
	}
}

// TestAdvanceClassifiesOncePerFlush: however many shards a flush touches,
// the new graph is classified once and every touched shard patches from
// that one classification.
func TestAdvanceClassifiesOncePerFlush(t *testing.T) {
	c, newG := grownGraph(t, novelCerts(2))
	classified := obs.StageHistogram("index_classify")
	before := classified.Count()
	nc, ast := c.Advance(newG, 1)
	if got := classified.Count() - before; got != 1 {
		t.Errorf("Advance classified the graph %d times, want 1", got)
	}
	if ast.Touched < 2 || ast.Patched != ast.Touched || ast.Reason != "" {
		t.Fatalf("a six-entity flush over four shards should patch several shards: %+v", ast)
	}
	checkPartition(t, nc, newG)
}

// TestAdvanceDirtyFractionFallback: a flush that dirties more than a
// quarter of the entities rebuilds its touched shards instead of patching
// them, says why, and serves what a fresh partition serves.
func TestAdvanceDirtyFractionFallback(t *testing.T) {
	c, newG := grownGraph(t, novelCerts(80))
	nc, ast := c.Advance(newG, 1)
	if 4*ast.DirtyNodes <= len(newG.Nodes) {
		t.Fatalf("the batch dirtied only %d of %d entities", ast.DirtyNodes, len(newG.Nodes))
	}
	if ast.Touched == 0 || ast.Patched != 0 || ast.Reason == "" {
		t.Fatalf("Advance patched a flush over the dirty fraction: %+v", ast)
	}
	fresh := shard.Partition(newG, shard.Options{Shards: 4, SimThreshold: 0.5})
	for qi, q := range goldenQueries(newG) {
		if got, want := render(nc.Search(q)), render(fresh.Search(q)); got != want {
			t.Fatalf("query %d (%+v): rebuilt coordinator diverged\nwant:\n%s\ngot:\n%s", qi, q, want, got)
		}
	}
}
