package index

import (
	"slices"
	"testing"

	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/symbol"
)

// checkCodec round-trips one id list through the codec: len, decode and
// the iterator must all give the list back, and an exhausted iterator must
// stay exhausted.
func checkCodec[T postingID](t *testing.T, name string, ids []T) {
	t.Helper()
	pl := encodePostings(ids)
	if int(pl.n) != len(ids) {
		t.Errorf("%s: len = %d, want %d", name, int(pl.n), len(ids))
	}
	if got := pl.decode(); !slices.Equal(got, ids) || (len(ids) == 0 && got != nil) {
		t.Errorf("%s: decode = %v, want %v", name, got, ids)
	}
	it := pl.iter()
	var walked []T
	for {
		id, ok := it.Next()
		if !ok {
			break
		}
		walked = append(walked, id)
	}
	if !slices.Equal(walked, ids) {
		t.Errorf("%s: iterator walked %v, want %v", name, walked, ids)
	}
	if id, ok := it.Next(); ok {
		t.Errorf("%s: exhausted iterator yielded %d", name, id)
	}
}

// TestPostingCodecRoundTrip runs the one delta+varint codec at both of its
// instantiations over the shapes that have each been a bug somewhere: the
// empty list, id 0 (stored as a gap from -1), repeats (gap 0), and a gap
// too wide for three varint bytes.
func TestPostingCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		ids  []int32
	}{
		{"empty", nil},
		{"zero only", []int32{0}},
		{"zero first", []int32{0, 1, 2, 130}},
		{"repeats", []int32{3, 3, 3, 9, 9}},
		{"gap over 2^21", []int32{5, 5 + 1<<21 + 1, 1<<31 - 1}},
	}
	for _, c := range cases {
		nodes := make([]pedigree.NodeID, len(c.ids))
		syms := make([]symbol.ID, len(c.ids))
		for i, id := range c.ids {
			nodes[i], syms[i] = pedigree.NodeID(id), symbol.ID(id)
		}
		checkCodec(t, c.name+"/NodeID", nodes)
		checkCodec(t, c.name+"/symbol.ID", syms)
	}
	// Above the int32 range only symbol ids exist.
	checkCodec(t, "high/symbol.ID", []symbol.ID{1 << 31, 1<<32 - 1})
	var zero PostingIter[pedigree.NodeID]
	if id, ok := zero.Next(); ok {
		t.Errorf("zero iterator yielded %d", id)
	}
}
