package blocking

import (
	"os"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par"
)

// buildBlocks replicates the block-construction half of Pairs so emission
// can be measured and audited in isolation.
func buildBlocks(d *model.Dataset, ids []model.RecordID, cfg LSHConfig) map[blockKey][]model.RecordID {
	l := NewLSH(cfg)
	type recHashes struct{ full, surname []uint64 }
	hashes := make([]recHashes, len(ids))
	par.Range(len(ids), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec := d.Record(ids[i])
			hashes[i].full = l.bandHashes(nameKeySyms(rec.First, rec.Sur))
			if rec.Surname() != "" {
				hashes[i].surname = l.bandHashes(rec.Surname())
			}
		}
	})
	blocks := make(map[blockKey][]model.RecordID)
	for i, id := range ids {
		for band, h := range hashes[i].full {
			blocks[blockKey{band: band, hash: h}] = append(blocks[blockKey{band: band, hash: h}], id)
		}
		for band, h := range hashes[i].surname {
			key := blockKey{band: cfg.Bands + band, hash: h}
			blocks[key] = append(blocks[key], id)
		}
	}
	return blocks
}

// TestPairHintSizingAudit re-checks the emitShard map-sizing heuristic
// (seen sized to pairHint/4, output to pairHint/8) against both the
// parish-scale IOS profile and the DS-scale substrate. Measured distinct
// fractions of worst case: 0.18 (IOS), 0.41 (DS-scale) — the /4 sizing
// splits that range, costing at most one map growth at the top. This test
// pins the fraction below 0.5 so the sizing stays within one doubling; a
// failure means the data shape drifted and emitShard needs a new audit.
func TestPairHintSizingAudit(t *testing.T) {
	cases := []struct {
		name string
		data *model.Dataset
	}{
		{"ios", dataset.Generate(dataset.IOS().Scaled(0.2)).Dataset},
		{"ds-scale", dataset.GenerateScale(dataset.ScaleTier(5000)).Dataset},
	}
	cfg := DefaultLSHConfig()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ids := allIDs(tc.data)
			blocks := buildBlocks(tc.data, ids, cfg)
			worst := 0
			distinct := map[model.PairKey]bool{}
			for _, blk := range blocks {
				if cfg.MaxBlockSize > 0 && len(blk) > cfg.MaxBlockSize {
					continue
				}
				worst += len(blk) * (len(blk) - 1) / 2
				for i := 0; i < len(blk); i++ {
					for j := i + 1; j < len(blk); j++ {
						if blk[i] != blk[j] {
							distinct[model.MakePairKey(blk[i], blk[j])] = true
						}
					}
				}
			}
			if worst == 0 {
				t.Fatal("no blocks")
			}
			frac := float64(len(distinct)) / float64(worst)
			t.Logf("%s: worst-case=%d distinct=%d fraction=%.3f (hint sizes to 0.25)",
				tc.name, worst, len(distinct), frac)
			if frac > 0.5 {
				t.Errorf("distinct fraction %.3f is more than one doubling above the pairHint/4 sizing; revisit emitShard", frac)
			}
		})
	}
}

// BenchmarkEmitPairsScale measures pair emission on the DS-scale tiers.
// The tiers are minutes-long and allocate tens of gigabytes, so they only
// run when explicitly requested:
//
//	SNAPS_BENCH_SCALE=100k go test -bench EmitPairsScale -benchtime 1x ./internal/blocking
//	SNAPS_BENCH_SCALE=1M   go test -bench EmitPairsScale -benchtime 1x ./internal/blocking
//
// TestPairHintSizingAudit is the always-on check of the same sizing.
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
			blocks := buildBlocks(d, ids, cfg)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := emitPairs(d, blocks, cfg.MaxBlockSize)
				if len(out) == 0 {
					b.Fatal("no pairs emitted")
				}
			}
		})
	}
}
