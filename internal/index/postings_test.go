package index

import (
	"slices"
	"testing"
)

// checkCodec round-trips one rank list through the codec: len and the
// iterator must give the list back, and an exhausted iterator must stay
// exhausted.
func checkCodec(t *testing.T, name string, ids []uint32) {
	t.Helper()
	pl := encodePostings(ids)
	if int(pl.n) != len(ids) {
		t.Errorf("%s: len = %d, want %d", name, int(pl.n), len(ids))
	}
	it := pl.iter()
	var walked []uint32
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

// TestPostingCodecRoundTrip runs the delta+varint codec of S's bigram
// postings over the shapes that have each been a bug somewhere: the empty
// list, rank 0 (stored as a gap from -1), repeats (gap 0), a gap too wide
// for three varint bytes, and ranks above the int32 range.
func TestPostingCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		ids  []uint32
	}{
		{"empty", nil},
		{"zero only", []uint32{0}},
		{"zero first", []uint32{0, 1, 2, 130}},
		{"repeats", []uint32{3, 3, 3, 9, 9}},
		{"gap over 2^21", []uint32{5, 5 + 1<<21 + 1, 1<<31 - 1}},
		{"high", []uint32{1 << 31, 1<<32 - 1}},
	}
	for _, c := range cases {
		checkCodec(t, c.name, c.ids)
	}
	var zero postingIter
	if id, ok := zero.Next(); ok {
		t.Errorf("zero iterator yielded %d", id)
	}
}
