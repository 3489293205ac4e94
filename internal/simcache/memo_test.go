package simcache

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestMemoConcurrentGetPut hammers one table from several goroutines over
// overlapping key ranges, far enough for every shard to republish its slots
// three times while lock-free readers probe them: every hit returns exactly
// the value put for that key, every distinct key is stored once, and the
// striped counters account for every lookup. Run under -race in CI.
func TestMemoConcurrentGetPut(t *testing.T) {
	const (
		goroutines = 8
		keys       = 400_000 // ~3100 per shard: slots grow 1024 → 8192
		span       = keys / 2
		passes     = 2
	)
	valueOf := func(k uint64) float64 { return float64(k)*0.5 + 1 }
	var (
		tbl   memoTable
		calls atomic.Int64
		wg    sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(lo uint64) {
			defer wg.Done()
			n := int64(0)
			for pass := 0; pass < passes; pass++ {
				for k := lo + 1; k <= lo+span; k++ {
					n++
					if v, ok := tbl.get(k); !ok {
						tbl.put(k, valueOf(k))
					} else if v != valueOf(k) {
						t.Errorf("get(%d) = %v, want %v", k, v, valueOf(k))
						return
					}
				}
			}
			calls.Add(n)
		}(uint64(g) * (keys - span) / (goroutines - 1))
	}
	wg.Wait()

	if got := tbl.entries(); got != keys {
		t.Errorf("entries() = %d, want the %d distinct keys", got, keys)
	}
	hits, misses := int64(0), int64(0)
	for i := range tbl.shards {
		hits += tbl.shards[i].hits.Load()
		misses += tbl.shards[i].misses.Load()
	}
	if hits+misses != calls.Load() || misses < keys {
		t.Errorf("hits %d + misses %d, want %d lookups of which at least %d missed", hits, misses, calls.Load(), keys)
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok := tbl.get(k); !ok || v != valueOf(k) {
			t.Fatalf("after the hammer get(%d) = %v, %v", k, v, ok)
		}
	}
}

// TestMemoShardFillsCacheLines keeps the padding honest.
func TestMemoShardFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(memoShard{}); size%64 != 0 {
		t.Fatalf("memoShard is %d bytes, want a multiple of 64", size)
	}
}
