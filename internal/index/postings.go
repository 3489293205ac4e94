// Delta + varint compressed posting lists.
//
// Both index structures are dominated by posting lists: the keyword index
// maps every QID value to the (sorted) entity nodes carrying it, and the
// similarity index maps every bigram to the (sorted) values containing it.
// Stored as []NodeID / []string those lists cost 4-16 bytes per entry plus
// a slice header per list; at DS scale the entries number in the tens of
// millions. Sorted integer lists compress extremely well as varint-coded
// gaps — frequent values have dense, small deltas — so both list kinds are
// one codec: a byte stream of uvarint deltas, decoded on read, instantiated
// over pedigree.NodeID (K) and symbol.ID (S's bigram postings, where sixteen
// bytes of string header per entry collapse to the gap between symbol ids).
//
// Encoded lists are immutable: the bigram lists of a field a flush does not
// reach are shared between index generations (index.UpdateSubset). The query
// hot path iterates postings without allocating via PostingIter; Lookup
// decodes into a fresh slice the caller owns.
package index

import "encoding/binary"

// postingID is what a posting list holds: pedigree.NodeID or symbol.ID.
type postingID interface{ ~int32 | ~uint32 }

// postingList is a compressed, sorted list of ids. The zero value is the
// empty list.
type postingList[T postingID] struct {
	n    int32
	data []byte
}

// encodePostings compresses a sorted (ascending, possibly with repeats)
// id list. The first id is stored as a delta from -1 so that id 0 still
// yields a positive gap.
func encodePostings[T postingID](ids []T) postingList[T] {
	if len(ids) == 0 {
		return postingList[T]{}
	}
	var buf [binary.MaxVarintLen64]byte
	data := make([]byte, 0, len(ids)) // dense lists average ~1 byte/entry
	prev := int64(-1)
	for _, id := range ids {
		k := binary.PutUvarint(buf[:], uint64(int64(id)-prev))
		data = append(data, buf[:k]...)
		prev = int64(id)
	}
	return postingList[T]{n: int32(len(ids)), data: data}
}

// decode returns the entries as a fresh slice (nil when empty).
func (p postingList[T]) decode() []T {
	if p.n == 0 {
		return nil
	}
	out := make([]T, 0, p.n)
	for it := p.iter(); ; {
		id, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// PostingIter walks a compressed posting list without allocating. The
// zero value is an exhausted iterator.
type PostingIter[T postingID] struct {
	data []byte
	pos  int
	prev int64
}

// iter returns an iterator positioned before the first entry.
func (p postingList[T]) iter() PostingIter[T] {
	return PostingIter[T]{data: p.data, prev: -1}
}

// Next returns the next id, or ok=false when the list is exhausted.
func (it *PostingIter[T]) Next() (T, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	d, k := binary.Uvarint(it.data[it.pos:])
	it.pos += k
	it.prev += int64(d)
	return T(it.prev), true
}
