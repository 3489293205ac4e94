// Delta + varint compressed posting lists of S's bigrams.
//
// The similarity index maps every bigram of a field's values to the
// (sorted) ranks of the values containing it, a value's rank being its
// place in the field's vocabulary in string order. A probe walks a few of
// these lists once per lookup S cannot answer, so they are stored for size
// rather than speed: sorted integer lists compress extremely well as
// varint-coded gaps — frequent bigrams have dense, small deltas — so a list
// is a byte stream of uvarint deltas, walked without allocating by
// postingIter. (K's postings, which every search reads, are raw entity ids
// addressed by symbol id instead; see keyField.)
//
// Encoded lists are immutable: the bigram lists of a field a flush does not
// reach are shared between index generations (index.UpdateSubset).
package index

import "encoding/binary"

// postingList is a compressed, sorted list of ranks. The zero value is the
// empty list.
type postingList struct {
	n    int32
	data []byte
}

// encodePostings compresses a sorted (ascending, possibly with repeats)
// list. The first entry is stored as a delta from -1 so that 0 still
// yields a positive gap.
func encodePostings(ids []uint32) postingList {
	if len(ids) == 0 {
		return postingList{}
	}
	var buf [binary.MaxVarintLen64]byte
	data := make([]byte, 0, len(ids)) // dense lists average ~1 byte/entry
	prev := int64(-1)
	for _, id := range ids {
		k := binary.PutUvarint(buf[:], uint64(int64(id)-prev))
		data = append(data, buf[:k]...)
		prev = int64(id)
	}
	return postingList{n: int32(len(ids)), data: data}
}

// postingIter walks a compressed posting list without allocating. The
// zero value is an exhausted iterator.
type postingIter struct {
	data []byte
	pos  int
	prev int64
}

// iter returns an iterator positioned before the first entry.
func (p postingList) iter() postingIter {
	return postingIter{data: p.data, prev: -1}
}

// Next returns the next entry, or ok=false when the list is exhausted.
func (it *postingIter) Next() (uint32, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	d, k := binary.Uvarint(it.data[it.pos:])
	it.pos += k
	it.prev += int64(d)
	return uint32(it.prev), true
}
