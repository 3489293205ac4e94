package blocking

import (
	"os"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
)

// countPairs runs pair emission over prebuilt signature tables, so it can
// be measured apart from the MinHash pass.
func countPairs(d *model.Dataset, ids []model.RecordID, tables []sigTable, maxBlock int) int {
	n := 0
	emitPairs(d, ids, tables, maxBlock, 0, func(chunk []Candidate) { n += len(chunk) })
	return n
}

// BenchmarkEmitPairsScale measures pair emission on the DS-scale tiers.
// The tiers are minutes-long and allocate gigabytes, so they only run when
// explicitly requested:
//
//	SNAPS_BENCH_SCALE=100k go test -bench EmitPairsScale -benchtime 1x ./internal/blocking
//	SNAPS_BENCH_SCALE=1M   go test -bench EmitPairsScale -benchtime 1x ./internal/blocking
func BenchmarkEmitPairsScale(b *testing.B) {
	want := os.Getenv("SNAPS_BENCH_SCALE")
	for _, tier := range []struct {
		name  string
		certs int
	}{
		{"100k", 100000},
		{"1M", 1000000},
	} {
		b.Run("scale="+tier.name, func(b *testing.B) {
			if want != tier.name {
				b.Skipf("set SNAPS_BENCH_SCALE=%s to run", tier.name)
			}
			d := dataset.GenerateScale(dataset.ScaleTier(tier.certs)).Dataset
			ids := allIDs(d)
			cfg := DefaultLSHConfig()
			tables := NewLSH(cfg).tables(d, ids)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if countPairs(d, ids, tables, cfg.MaxBlockSize) == 0 {
					b.Fatal("no pairs emitted")
				}
			}
		})
	}
}
