package blocking

import (
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
)

// TestPairsChunkedStreamEquivalence locks the streamed emitter to the
// materialised candidate list: concatenating the chunks must reproduce
// Pairs byte for byte (same pairs, same order), with no duplicate pair
// across chunk boundaries — a span decides on its own what an earlier span
// has emitted.
// The DS-scale tier is sized to force a few dozen chunks so the
// cross-span path actually runs.
func TestPairsChunkedStreamEquivalence(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	ids := allIDs(d)
	for _, workers := range []int{1, 3} {
		partest.WithProcs(t, workers)
		l := NewLSH(ScaleLSHConfig())
		want := l.Pairs(d, ids)

		var streamed []Candidate
		chunks := 0
		seen := make(map[model.PairKey]bool, len(want))
		l.PairsChunked(d, ids, func(chunk []Candidate) {
			chunks++
			for _, c := range chunk {
				k := model.MakePairKey(c.A, c.B)
				if seen[k] {
					t.Fatalf("workers=%d: pair %v emitted twice across chunks", workers, c)
				}
				seen[k] = true
			}
			streamed = append(streamed, chunk...)
		})
		if chunks < 2 {
			t.Fatalf("workers=%d: got %d chunks, want several (tier too small to exercise streaming)", workers, chunks)
		}
		if len(streamed) != len(want) {
			t.Fatalf("workers=%d: streamed %d pairs, materialised %d", workers, len(streamed), len(want))
		}
		for i := range want {
			if streamed[i] != want[i] {
				t.Fatalf("workers=%d: pair %d = %v streamed, %v materialised", workers, i, streamed[i], want[i])
			}
		}
	}
}

// TestPairsTouchingChunkedStreamEquivalence locks the incremental (Extend)
// emitter to its definition: streaming from the first new record yields
// exactly the materialised candidate list restricted to the pairs with an
// endpoint in the focus set, in the same order — pairs are canonical A < B
// and the new records are a suffix of the id space.
func TestPairsTouchingChunkedStreamEquivalence(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	ids := allIDs(d)
	firstNew := model.RecordID(len(d.Records) * 3 / 4)
	focus := map[model.RecordID]bool{}
	for id := firstNew; int(id) < len(d.Records); id++ {
		focus[id] = true
	}
	l := NewLSH(ScaleLSHConfig())
	var want []Candidate
	for _, c := range l.Pairs(d, ids) {
		if focus[c.A] || focus[c.B] {
			want = append(want, c)
		}
	}
	if len(want) == 0 {
		t.Fatal("no touching pairs; focus window too small")
	}
	var streamed []Candidate
	chunks := 0
	l.PairsChunkedFrom(d, ids, int(firstNew), func(chunk []Candidate) {
		chunks++
		streamed = append(streamed, chunk...)
	})
	if chunks < 2 {
		t.Fatalf("got %d chunks, want several (tier too small to exercise streaming)", chunks)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d pairs, materialised %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Fatalf("pair %d = %v streamed, %v materialised", i, streamed[i], want[i])
		}
	}
}

// TestCappedBlocksAreCounted pins the no-silently-skipped-work contract of
// the block cap: a DS-3k run under the scale profile drops oversized blocks,
// and the two counters move by exactly a direct recount of them.
func TestCappedBlocksAreCounted(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	ids := allIDs(d)
	cfg := ScaleLSHConfig()
	wantBlocks, wantRecords := int64(0), int64(0)
	for _, blk := range lshBlocks(d, ids, cfg) {
		if len(blk) > cfg.MaxBlockSize {
			wantBlocks++
			wantRecords += int64(len(blk))
		}
	}
	if wantBlocks == 0 {
		t.Fatal("no oversized block at this tier; the cap is not exercised")
	}
	blocks0, records0 := mCappedBlocks.Value(), mCappedRecords.Value()
	NewLSH(cfg).Pairs(d, ids)
	if got := mCappedBlocks.Value() - blocks0; got != wantBlocks {
		t.Errorf("snaps_blocking_capped_blocks_total moved by %d, recount says %d", got, wantBlocks)
	}
	if got := mCappedRecords.Value() - records0; got != wantRecords {
		t.Errorf("snaps_blocking_capped_records_total moved by %d, recount says %d", got, wantRecords)
	}
}
