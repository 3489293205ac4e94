package simcache

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/snaps/snaps/internal/strsim"
	"github.com/snaps/snaps/internal/symbol"
)

// Features holds everything the similarity kernels derive from one distinct
// interned value. All fields are immutable after construction; the token
// substrings share the interned string's backing bytes.
type Features struct {
	// Str is the interned string itself, cached to skip the symbol-table
	// snapshot load on every kernel call.
	Str string
	// Bigrams is the sorted distinct bigram-ID signature of Str (the
	// integer form of strsim.BigramSet), for merge-based Jaccard.
	Bigrams []strsim.BigramID
	// Tokens is Str split on spaces and tabs in order of appearance, the
	// operand shape of the Monge-Elkan loop.
	Tokens []string
	// TokenSyms is the sorted distinct symbols of Tokens, for merge-based
	// token Jaccard.
	TokenSyms []symbol.ID
	// HasSpace mirrors strsim's NameSim trigger: Str contains a space
	// byte (tabs deliberately excluded, matching the string kernel).
	HasSpace bool
}

// The slab is a chunked array of atomically published feature pointers
// indexed by symbol ID. Chunks are fixed-size so a published *Features is
// never moved; the chunk directory is copy-on-grow behind an atomic
// pointer, so readers never lock. Symbol IDs are append-only and dense,
// which is what makes a flat slab (rather than a hash map) the right shape.
const (
	featChunkBits = 12
	featChunkSize = 1 << featChunkBits
)

type featChunk [featChunkSize]atomic.Pointer[Features]

var featSlab struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*featChunk]
}

func init() {
	empty := []*featChunk{}
	featSlab.chunks.Store(&empty)
}

// Feat returns the derived features of id, computing and publishing them on
// first use. Concurrent first uses may compute twice; the computation is a
// pure function of the interned string, so whichever pointer wins the CAS
// carries identical content.
func Feat(id symbol.ID) *Features {
	ci := int(id) >> featChunkBits
	chunks := *featSlab.chunks.Load()
	if ci >= len(chunks) {
		chunks = growChunks(ci)
	}
	slot := &chunks[ci][int(id)&(featChunkSize-1)]
	if f := slot.Load(); f != nil {
		return f
	}
	f := computeFeatures(id)
	if !slot.CompareAndSwap(nil, f) {
		return slot.Load()
	}
	return f
}

// growChunks extends the chunk directory to cover chunk index ci and
// returns the new directory. The old directory slice is never mutated, so
// concurrent readers holding it stay correct (they just re-grow).
func growChunks(ci int) []*featChunk {
	featSlab.mu.Lock()
	defer featSlab.mu.Unlock()
	cur := *featSlab.chunks.Load()
	if ci < len(cur) {
		return cur
	}
	next := make([]*featChunk, ci+1)
	copy(next, cur)
	for i := len(cur); i <= ci; i++ {
		next[i] = new(featChunk)
	}
	featSlab.chunks.Store(&next)
	return next
}

func computeFeatures(id symbol.ID) *Features {
	s := symbol.Str(id)
	f := &Features{
		Str:      s,
		HasSpace: strings.IndexByte(s, ' ') >= 0,
		Tokens:   strsim.Fields(s),
	}
	if len(s) >= 2 {
		f.Bigrams = strsim.AppendBigramIDs(make([]strsim.BigramID, 0, len(s)-1), s)
	}
	if len(f.Tokens) > 0 {
		// Single-token values are their own token, already interned; only
		// genuinely multi-token values add token symbols to the table.
		ts := make([]symbol.ID, len(f.Tokens))
		for i, t := range f.Tokens {
			ts[i] = symbol.Intern(t)
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		out := ts[:1]
		for _, t := range ts[1:] {
			if t != out[len(out)-1] {
				out = append(out, t)
			}
		}
		f.TokenSyms = out
	}
	return f
}
