package blocking

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
)

// byHashPos is the comparator order the radix band sort replaces.
func byHashPos(x, y bandEntry) int {
	if x.hash != y.hash {
		return cmp.Compare(x.hash, y.hash)
	}
	return cmp.Compare(x.pos, y.pos)
}

// TestSortByHashMatchesComparator checks the radix band sort against
// slices.SortFunc on (hash, position) for entries in position order: empty
// and one-entry bands, runs of equal hashes, hashes that differ only in
// their top byte (every other digit is skipped) and uniform hashes. One
// pair of scratch buffers serves every case, as it serves a worker's bands.
func TestSortByHashMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func(p int) uint64{
		"equal runs": func(int) uint64 { return uint64(rng.Intn(5)) * 0x9e3779b97f4a7c15 },
		"top byte":   func(int) uint64 { return uint64(rng.Intn(256))<<56 | 0x00ab_cdef_0123_4567 },
		"uniform":    func(int) uint64 { return rng.Uint64() },
		"descending": func(p int) uint64 { return uint64(1<<20 - p) },
	}
	var scratch [2][]bandEntry
	for name, hash := range cases {
		for _, n := range []int{0, 1, 2, 300, 70000} {
			entries := make([]bandEntry, n)
			for p := range entries {
				entries[p] = bandEntry{hash: hash(p), pos: int32(p)}
			}
			want := slices.Clone(entries)
			slices.SortFunc(want, byHashPos)
			var got []bandEntry
			scratch[0] = append(scratch[0][:0], entries...)
			got, scratch[1] = sortByHash(scratch[0], scratch[1])
			scratch[0] = got
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %d entries: radix order differs from the comparator's", name, n)
			}
		}
	}
}

// TestBandEntriesMatchComparator checks every band of the scale profile on
// DS-3k, built whole and as for a flush of the last 16 positions
// (firstNew > 0: a band keeps only the hashes new positions carry), against
// a comparator sort of entries collected straight from the tables.
func TestBandEntriesMatchComparator(t *testing.T) {
	d := dataset.GenerateScale(dataset.ScaleTier(3000)).Dataset
	ids := allIDs(d)
	tables := NewLSH(ScaleLSHConfig()).tables(d, ids)
	tables[1].base = tables[0].width
	for _, firstNew := range []int{0, len(ids) - 16} {
		e := &emitter{tables: tables, firstNew: int32(firstNew)}
		var scratch [2][]bandEntry
		for b := 0; b < tables[0].width+tables[1].width; b++ {
			tb, off := tables[b/tables[0].width], b%tables[0].width
			hash := func(p int) uint64 { return tb.sigs[int(tb.row[p])*tb.width+off] }
			fresh := map[uint64]bool{}
			for p := firstNew; p < len(ids); p++ {
				if tb.row[p] >= 0 {
					fresh[hash(p)] = true
				}
			}
			var want []bandEntry
			for p := range ids {
				if tb.row[p] >= 0 && fresh[hash(p)] {
					want = append(want, bandEntry{hash: hash(p), pos: int32(p)})
				}
			}
			slices.SortFunc(want, byHashPos)
			got := e.bandEntries(b, &scratch)
			if firstNew > 0 && len(got) > len(ids)/10 {
				t.Fatalf("band %d of a 16-record flush holds %d entries", b, len(got))
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("firstNew=%d band %d: %d entries, the comparator sort of the table gives %d", firstNew, b, len(got), len(want))
			}
		}
	}
}
