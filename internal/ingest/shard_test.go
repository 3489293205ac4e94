package ingest

import (
	"reflect"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
)

// generatedShardedPipeline builds a pipeline serving through an n-shard
// coordinator.
func generatedShardedPipeline(t *testing.T, scale float64, nshards int, cfg Config) *Pipeline {
	t.Helper()
	d := dataset.Generate(dataset.IOS().Scaled(scale)).Dataset
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	p, err := NewPipeline(NewServing(d, pr.Result.Store, nshards, cfg), nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRouteCertPrecedence pins the routing contract: a certificate routes
// by its principal role's name (the baby of a birth), the route is
// deterministic and in range, and one shard collapses everything to 0.
func TestRouteCertPrecedence(t *testing.T) {
	c := birthCert([2]string{"Mary ", "MacDonald"}, [2]string{"john", "smith"}, [2]string{"anne", "smith"}, 1880)
	if got := RouteCert(c, 1); got != 0 {
		t.Fatalf("RouteCert(_, 1) = %d, want 0", got)
	}
	for _, n := range []int{2, 4, 7} {
		got := RouteCert(c, n)
		// The baby is the birth certificate's principal; names are
		// normalised the same way Apply normalises them before indexing.
		want := shard.Route("mary", "macdonald", n)
		if got != want {
			t.Fatalf("n=%d: RouteCert = %d, baby routes to %d", n, got, want)
		}
		if again := RouteCert(c, n); again != got {
			t.Fatalf("n=%d: RouteCert unstable: %d then %d", n, got, again)
		}
	}
}

// TestShardedPipelineBacklogAccounting submits certificates with known
// routes and asserts the per-shard backlog split is exact — per-shard
// record counts matching RouteCert, byte totals summing to the global
// backlog, the hottest shard correctly identified — then drains it with a
// flush and checks the new generation answers through the coordinator.
func TestShardedPipelineBacklogAccounting(t *testing.T) {
	const nshards = 4
	p := generatedShardedPipeline(t, 0.03, nshards, manualConfig())
	defer p.Close()

	sv0 := p.Serving()
	if got := sv0.Shards.NumShards(); got != nshards {
		t.Fatalf("bundle has %d shards, want %d", got, nshards)
	}

	certs := []*Certificate{
		birthCert([2]string{"zebedee", "quixworth"}, [2]string{"barnabus", "quixworth"},
			[2]string{"philomena", "quixworth"}, 1890),
		birthCert([2]string{"tormod", "beathan"}, [2]string{"iain", "beathan"},
			[2]string{"peigi", "beathan"}, 1891),
		birthCert([2]string{"oighrig", "ruadh"}, [2]string{"calum", "ruadh"},
			[2]string{"mairead", "ruadh"}, 1892),
		birthCert([2]string{"zebedee", "quixworth"}, [2]string{"barnabus", "quixworth"},
			[2]string{"philomena", "quixworth"}, 1893),
	}
	wantRecords := make([]int, nshards)
	for _, c := range certs {
		wantRecords[RouteCert(c, nshards)]++
		if err := p.Submit(c); err != nil {
			t.Fatal(err)
		}
	}

	bl := p.ShardBacklog()
	if len(bl) != nshards {
		t.Fatalf("ShardBacklog reports %d shards, want %d", len(bl), nshards)
	}
	gotPending, gotBytes := p.Backlog()
	sumRecords, sumBytes := 0, int64(0)
	for s, b := range bl {
		if b.Shard != s {
			t.Fatalf("shard %d reported as %d", s, b.Shard)
		}
		if b.Pending != wantRecords[s] {
			t.Fatalf("shard %d backlog = %d records, want %d", s, b.Pending, wantRecords[s])
		}
		if (b.Pending == 0) != (b.PendingBytes == 0) {
			t.Fatalf("shard %d: %d records but %d bytes", s, b.Pending, b.PendingBytes)
		}
		sumRecords += b.Pending
		sumBytes += b.PendingBytes
	}
	if sumRecords != gotPending || sumBytes != gotBytes {
		t.Fatalf("per-shard split (%d records, %d bytes) does not sum to global backlog (%d, %d)",
			sumRecords, sumBytes, gotPending, gotBytes)
	}

	// The hottest shard is the arg-max of the split.
	hotShard, hotRecords, _ := p.HottestShardBacklog()
	for s, b := range bl {
		if b.Pending > hotRecords {
			t.Fatalf("shard %d backlog %d exceeds reported hottest %d (shard %d)",
				s, b.Pending, hotRecords, hotShard)
		}
	}
	if bl[hotShard].Pending != hotRecords {
		t.Fatalf("hottest shard %d reported %d records, split says %d",
			hotShard, hotRecords, bl[hotShard].Pending)
	}

	st := p.Status()
	if st.Shards != nshards || len(st.ShardBacklog) != nshards {
		t.Fatalf("Status shards = %d / %d entries, want %d", st.Shards, len(st.ShardBacklog), nshards)
	}

	// Drain: the flush zeroes the split and publishes a coordinator that
	// answers for the new names.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for s, b := range p.ShardBacklog() {
		if b.Pending != 0 || b.PendingBytes != 0 {
			t.Fatalf("shard %d backlog not drained by flush: %+v", s, b)
		}
	}
	if _, r, b := p.HottestShardBacklog(); r != 0 || b != 0 {
		t.Fatalf("hottest backlog after flush = %d records %d bytes", r, b)
	}
	sv := p.Serving()
	if sv.Generation != sv0.Generation+1 {
		t.Fatalf("generation %d -> %d, want +1", sv0.Generation, sv.Generation)
	}
	res := sv.Shards.Search(query.Query{FirstName: "zebedee", Surname: "quixworth"})
	found := false
	for _, r := range res {
		for _, fn := range sv.Graph.Node(r.Entity).FirstNames {
			if fn == "zebedee" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("flushed generation does not answer for the ingested certificate")
	}
}

// TestOneShardPipelineShardSplit pins the one-shard case of the general
// accounting: one backlog row that always equals the global backlog, which
// is also what HottestShardBacklog reports.
func TestOneShardPipelineShardSplit(t *testing.T) {
	p := generatedPipeline(t, 0.02, manualConfig())
	defer p.Close()
	if err := p.Submit(birthCert([2]string{"a", "b"}, [2]string{"c", "d"}, [2]string{"e", "f"}, 1880)); err != nil {
		t.Fatal(err)
	}
	records, bytes := p.Backlog()
	want := []ShardBacklog{{Shard: 0, Pending: records, PendingBytes: bytes}}
	if bl := p.ShardBacklog(); !reflect.DeepEqual(bl, want) {
		t.Fatalf("one-shard backlog split %+v, want %+v", bl, want)
	}
	if st := p.Status(); st.Shards != 1 || !reflect.DeepEqual(st.ShardBacklog, want) {
		t.Fatalf("one-shard status shard fields: %+v", st)
	}
	s, r, b := p.HottestShardBacklog()
	if s != 0 || r != records || b != bytes {
		t.Fatalf("one-shard hottest = (%d, %d, %d), want (0, %d, %d)", s, r, b, records, bytes)
	}
}
