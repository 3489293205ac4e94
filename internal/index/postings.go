// Delta + varint compressed posting lists.
//
// Both index structures are dominated by posting lists: the keyword index
// maps every QID value to the (sorted) entity nodes carrying it, and the
// similarity index maps every bigram to the (sorted) values containing it.
// Stored as []NodeID / []string those lists cost 4-16 bytes per entry plus
// a slice header per list; at DS scale the entries number in the tens of
// millions. Sorted integer lists compress extremely well as varint-coded
// gaps — frequent values have dense, small deltas — so both list kinds are
// stored as a byte stream of uvarint deltas and decoded on read.
//
// Encoded lists are immutable: copy-on-write sharing between index
// generations (index.UpdateSubset) is a struct copy aliasing the same byte
// slice. The query hot path iterates postings without allocating via
// PostingIter; Lookup decodes into a fresh slice the caller owns.
package index

import (
	"encoding/binary"

	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/symbol"
)

// postingList is a compressed, sorted list of entity node ids. The zero
// value is the empty list.
type postingList struct {
	n    int32
	data []byte
}

// encodePostings compresses a sorted (ascending, possibly with repeats)
// id list. The first id is stored as a delta from -1 so that id 0 still
// yields a positive gap.
func encodePostings(ids []pedigree.NodeID) postingList {
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

// len returns the number of entries.
func (p postingList) len() int { return int(p.n) }

// decode returns the entries as a fresh slice (nil when empty).
func (p postingList) decode() []pedigree.NodeID {
	if p.n == 0 {
		return nil
	}
	out := make([]pedigree.NodeID, 0, p.n)
	prev := int64(-1)
	for i := 0; i < len(p.data); {
		d, k := binary.Uvarint(p.data[i:])
		i += k
		prev += int64(d)
		out = append(out, pedigree.NodeID(prev))
	}
	return out
}

// PostingIter walks a compressed posting list without allocating. The
// zero value is an exhausted iterator.
type PostingIter struct {
	data []byte
	pos  int
	prev int64
}

// iter returns an iterator positioned before the first entry.
func (p postingList) iter() PostingIter {
	return PostingIter{data: p.data, prev: -1}
}

// Next returns the next id, or ok=false when the list is exhausted.
func (it *PostingIter) Next() (pedigree.NodeID, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	d, k := binary.Uvarint(it.data[it.pos:])
	it.pos += k
	it.prev += int64(d)
	return pedigree.NodeID(it.prev), true
}

// symList is a compressed, sorted list of interned-string ids — the
// bigram postings of the similarity index. Sixteen bytes of string header
// per entry collapse to the varint gap between symbol ids.
type symList struct {
	n    int32
	data []byte
}

// encodeSyms compresses a sorted (ascending, strictly increasing) symbol
// id list.
func encodeSyms(ids []symbol.ID) symList {
	if len(ids) == 0 {
		return symList{}
	}
	var buf [binary.MaxVarintLen64]byte
	data := make([]byte, 0, len(ids))
	prev := int64(-1)
	for _, id := range ids {
		k := binary.PutUvarint(buf[:], uint64(int64(id)-prev))
		data = append(data, buf[:k]...)
		prev = int64(id)
	}
	return symList{n: int32(len(ids)), data: data}
}

func (p symList) len() int { return int(p.n) }

// symIter walks a compressed symbol list without allocating.
type symIter struct {
	data []byte
	pos  int
	prev int64
}

func (p symList) iter() symIter {
	return symIter{data: p.data, prev: -1}
}

func (it *symIter) next() (symbol.ID, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	d, k := binary.Uvarint(it.data[it.pos:])
	it.pos += k
	it.prev += int64(d)
	return symbol.ID(it.prev), true
}
