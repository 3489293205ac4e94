// External tests of what Advance does with a flush: every shard advances,
// and each of its name-field blocks is patched or rebuilt as the index
// decides.
package shard_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/ingest"
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

// TestAdvanceRepublishesEveryShard: a flush advances every shard, reusing
// none, and a six-entity flush patches every block it changes; the new
// ownership covers every node once.
func TestAdvanceRepublishesEveryShard(t *testing.T) {
	c, newG := grownGraph(t, novelCerts(2))
	nc, ast := c.Advance(newG, 1)
	if ast.Touched != c.NumShards() || ast.Reused != 0 || ast.Rebuilt != 0 {
		t.Fatalf("a six-entity flush over four shards should advance and patch all of them: %+v", ast)
	}
	for s, sh := range nc.Shards() {
		if sh == c.Shards()[s] {
			t.Fatalf("shard %d was carried over, not republished", s)
		}
	}
	checkPartition(t, nc, newG)
}

// TestAdvanceRebuildsFieldsPastTheBound: whether a block is patched or
// rebuilt is decided per name field of each shard, from the share of its
// values the flush added. 80 novel surnames are more than 12% of every
// shard's surnames, so every surname block is rebuilt, while the three new
// first names are too few to rebuild any first-name block. The counters
// tick once per block, and the coordinator serves what a fresh partition
// serves.
func TestAdvanceRebuildsFieldsPastTheBound(t *testing.T) {
	c, newG := grownGraph(t, novelCerts(80))
	incr := obs.Default.Counter("snaps_index_incremental_total", "")
	full := obs.Default.Counter("snaps_index_full_rebuild_total", "")
	i0, f0 := incr.Value(), full.Value()
	nc, ast := c.Advance(newG, 1)
	n := c.NumShards()
	for s, sh := range nc.Shards() {
		prev := c.Shards()[s].Keyword
		for f, rebuild := range map[index.Field]bool{index.FieldSurname: true, index.FieldFirstName: false} {
			was, is := prev.Values(f), sh.Keyword.Values(f)
			if over := 100*(is-was) > 12*is; over != rebuild {
				t.Fatalf("shard %d field %v went %d -> %d values: the case does not put it on the intended side of the bound", s, f, was, is)
			}
		}
	}
	if ast.Touched != n || ast.Reused != 0 || ast.Rebuilt != n {
		t.Fatalf("want every shard advanced and its surname block alone rebuilt: %+v", ast)
	}
	if got, want := full.Value()-f0, int64(n); got != want {
		t.Errorf("snaps_index_full_rebuild_total moved by %d, want %d (one per surname block)", got, want)
	}
	if got, want := incr.Value()-i0, int64(n); got != want {
		t.Errorf("snaps_index_incremental_total moved by %d, want %d (one per first-name block)", got, want)
	}
	checkPartition(t, nc, newG)
	fresh := shard.Partition(newG, shard.Options{Shards: n, SimThreshold: 0.5})
	for qi, q := range goldenQueries(newG) {
		if got, want := render(nc.Search(q)), render(fresh.Search(q)); got != want {
			t.Fatalf("query %d (%+v): advanced coordinator diverged\nwant:\n%s\ngot:\n%s", qi, q, want, got)
		}
	}
}
