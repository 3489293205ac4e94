package blocking

import (
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/par/partest"
)

// TestPairsShardedByteIdentical locks the parallel emitPairs (bands sorted
// and spans emitted on several goroutines) to the serial one: the candidate
// list must be byte-identical — same pairs, same order —
// at every GOMAXPROCS, because downstream dependency-graph node ids derive
// from candidate order.
func TestPairsShardedByteIdentical(t *testing.T) {
	d := dataset.Generate(dataset.IOS().Scaled(0.08)).Dataset
	ids := allIDs(d)
	partest.WithProcs(t, 1)
	base := NewLSH(DefaultLSHConfig()).Pairs(d, ids)
	if len(base) == 0 {
		t.Fatal("no candidates from serial blocking")
	}
	for _, w := range []int{2, 4, 7} {
		partest.WithProcs(t, w)
		got := NewLSH(DefaultLSHConfig()).Pairs(d, ids)
		if len(got) != len(base) {
			t.Fatalf("workers=%d emitted %d pairs, serial emitted %d", w, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d pair %d = %v, serial = %v", w, i, got[i], base[i])
			}
		}
	}
}

// BenchmarkEmitPairs measures pair emission alone (signature tables
// prebuilt): band sorts, span emission and the band-order dedup.
func BenchmarkEmitPairs(b *testing.B) {
	d := dataset.Generate(dataset.IOS().Scaled(0.1)).Dataset
	ids := allIDs(d)
	cfg := DefaultLSHConfig()
	tables := NewLSH(cfg).tables(d, ids)

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
				if countPairs(d, ids, tables, cfg.MaxBlockSize) == 0 {
					b.Fatal("no pairs emitted")
				}
			}
		})
	}
}
