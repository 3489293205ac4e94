package simcache

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/snaps/snaps/internal/obs"
	"github.com/snaps/snaps/internal/symbol"
)

// The two counters report, when read, the sums of the per-shard counts the
// lookups keep (memoShard): a lookup writes no line another shard's lookups
// write.
func init() {
	obs.Default.CounterFunc("snaps_simkernel_memo_hits_total",
		"Symbol-pair similarity kernel calls answered from the process-wide memo.",
		func() int64 { return memoCount(func(s *memoShard) int64 { return s.hits.Load() }) })
	obs.Default.CounterFunc("snaps_simkernel_memo_misses_total",
		"Symbol-pair similarity kernel calls that computed and stored a fresh score.",
		func() int64 { return memoCount(func(s *memoShard) int64 { return s.misses.Load() }) })
}

func memoCount(of func(*memoShard) int64) int64 {
	total := int64(0)
	for _, t := range []*memoTable{&nameMemo, &jacMemo, &tokenMemo} {
		for i := range t.shards {
			total += of(&t.shards[i])
		}
	}
	return total
}

// PackKey packs a canonical (unordered) symbol pair into one uint64. All
// memoised kernels are symmetric, so (a,b) and (b,a) share a slot. Both
// symbols must be non-None, which guarantees the key is never zero — the
// open-addressed tables use zero as the empty-slot sentinel.
func PackKey(a, b symbol.ID) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// memoTable is a sharded open-addressed uint64→float64 hash table whose
// lookups take no lock: scoring is read-mostly after warm-up (Zipf-repeated
// value pairs are the whole point of memoising). Probing is linear over
// power-of-two tables; keys are pre-mixed with splitmix64 so the low bits
// used for slots and the high bits used for shard selection are
// independently distributed.
//
// Publication protocol. A shard's slots hang off an atomic pointer. A
// writer, under the shard mutex, fills an empty slot by storing the value
// and then the key, both atomically; when the table is full enough it
// builds the doubled table aside and publishes it with one pointer store.
// A reader loads the pointer, then keys, and on finding its key loads the
// value the writer stored before that key. A reader still probing a
// replaced table finds everything put before the replacement and at worst
// misses a later put, which costs a recomputation of the same float.
type memoTable struct {
	shards [memoShardCount]memoShard
}

const memoShardCount = 128

// memoShard is padded to a cache line of its own, so that counting a lookup
// in the shard its key hashes to never contends with another shard.
type memoShard struct {
	mu    sync.Mutex // serialises put
	slots atomic.Pointer[memoSlots]
	n     int // filled slots, under mu

	hits, misses atomic.Int64 // lookups answered / not answered by this shard

	_ [64 - 40]byte
}

// memoSlots is one generation of a shard's table. A zero key is an empty
// slot; vals hold math.Float64bits of the scores.
type memoSlots struct {
	keys, vals []atomic.Uint64
}

// mix is the splitmix64 finaliser, the same mixer the blocking layer seeds
// its MinHash permutations with.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *memoTable) get(key uint64) (float64, bool) {
	h := mix(key)
	s := &t.shards[(h>>57)&(memoShardCount-1)]
	if sl := s.slots.Load(); sl != nil {
		mask := uint64(len(sl.keys) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			k := sl.keys[i].Load()
			if k == key {
				s.hits.Add(1)
				return math.Float64frombits(sl.vals[i].Load()), true
			}
			if k == 0 {
				break
			}
		}
	}
	s.misses.Add(1)
	return 0, false
}

func (t *memoTable) put(key uint64, v float64) {
	h := mix(key)
	s := &t.shards[(h>>57)&(memoShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.slots.Load()
	if sl == nil || 10*(s.n+1) >= 7*len(sl.keys) {
		// Build the next generation aside and publish it whole.
		var old memoSlots
		if sl != nil {
			old = *sl
		}
		size := max(1024, 2*len(old.keys))
		sl = &memoSlots{keys: make([]atomic.Uint64, size), vals: make([]atomic.Uint64, size)}
		for i := range old.keys {
			if k := old.keys[i].Load(); k != 0 {
				sl.insert(mix(k), k, old.vals[i].Load())
			}
		}
		s.slots.Store(sl)
	}
	if sl.insert(h, key, math.Float64bits(v)) {
		s.n++
	}
}

// insert places key under mixed hash h and reports whether it was absent;
// racing writers of the same key (both missed before either published)
// store identical values, so keeping the first copy is correct. The value
// is stored before the key that makes it findable.
func (sl *memoSlots) insert(h, key, bits uint64) bool {
	mask := uint64(len(sl.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch sl.keys[i].Load() {
		case 0:
			sl.vals[i].Store(bits)
			sl.keys[i].Store(key)
			return true
		case key:
			return false
		}
	}
}

// Entries returns the number of memoised pairs across all shards (for
// tests and footprint accounting).
func (t *memoTable) entries() int {
	total := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		total += t.shards[i].n
		t.shards[i].mu.Unlock()
	}
	return total
}

// One table per kernel: the same symbol pair means different things under
// NameSim, bigram Jaccard, and token Jaccard. NameSim is shared by the
// first-name and surname attributes — it is the same pure function of the
// two strings, so cross-attribute hits are free wins.
var (
	nameMemo  memoTable
	jacMemo   memoTable
	tokenMemo memoTable
)

// MemoEntries reports the total memoised pair count across all kernels.
func MemoEntries() int {
	return nameMemo.entries() + jacMemo.entries() + tokenMemo.entries()
}
