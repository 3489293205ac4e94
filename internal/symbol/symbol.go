// Package symbol implements the process-wide string-interning symbol table
// behind the integer-coded record attributes of internal/model.
//
// Historical vital-records data is massively repetitive: a few thousand
// distinct first names, surnames, addresses, and occupations cover tens of
// millions of records. Storing each occurrence as its own string costs a
// 16-byte header plus duplicated backing bytes per mention; interning
// collapses every occurrence of a value to one 4-byte ID and stores the
// bytes once. At DS scale (~24M certificates) that is the difference
// between a data set that fits in memory and one that does not.
//
// The table is append-only and index-stable: an ID, once issued, names the
// same string for the life of the process, so IDs can be compared for
// equality, embedded in records, shared across model.Dataset clones (the
// live-ingest pipeline clones the data set on every flush), and written to
// snapshots (remapped to a dense per-file table, see internal/store).
// Lookups by ID are a lock-free slice index; lookups by string share a read
// lock, and only the slow path that inserts a new value takes the write
// lock.
package symbol

import (
	"sync"
	"sync/atomic"
)

// ID names an interned string. The zero ID is the empty string, so
// zero-valued records have all attributes missing, matching the previous
// string representation.
type ID uint32

// None is the ID of the empty string (the "missing value" of the QID
// attribute model).
const None ID = 0

// table is the global symbol table. strs is an immutable snapshot of the
// interned strings, replaced wholesale on growth, so readers index it
// without locks; ids and the append path are guarded by mu.
var table = struct {
	mu    sync.RWMutex
	ids   map[string]ID
	strs  atomic.Pointer[[]string]
	bytes atomic.Int64 // total interned string bytes, for footprint stats
}{ids: map[string]ID{"": None}}

func init() {
	initial := []string{""}
	table.strs.Store(&initial)
}

// Intern returns the ID of s, issuing a new one if s has never been seen.
// The empty string is always None.
func Intern(s string) ID {
	// Fast path: value already interned. The ids map is only written under
	// mu, so reads must also synchronise — but most callers intern in
	// batches where the same values recur, and readers (the search path's
	// Lookup among them) do not wait for each other.
	if id, ok := Lookup(s); ok {
		return id
	}
	table.mu.Lock()
	defer table.mu.Unlock()
	if id, ok := table.ids[s]; ok {
		return id // interned between the two locks
	}
	strs := *table.strs.Load()
	id := ID(len(strs))
	// Publishing a longer header over the same backing array is safe: a
	// reader holding an older snapshot has a shorter len and can never
	// index the slot being written. When append reallocates, the old
	// snapshot keeps the old array. Either way, published entries are
	// immutable and interning stays amortised O(1).
	next := append(strs, s)
	table.strs.Store(&next)
	table.ids[s] = id
	table.bytes.Add(int64(len(s)))
	return id
}

// Lookup returns the ID of s if it is interned, without interning it.
func Lookup(s string) (ID, bool) {
	if s == "" {
		return None, true
	}
	table.mu.RLock()
	id, ok := table.ids[s]
	table.mu.RUnlock()
	return id, ok
}

// Str returns the string named by id. IDs never issued resolve to "" (they
// can only come from corrupted input; snapshot loading validates IDs before
// constructing records).
func Str(id ID) string {
	strs := *table.strs.Load()
	if int(id) >= len(strs) {
		return ""
	}
	return strs[id]
}

// Valid reports whether id has been issued.
func Valid(id ID) bool {
	return int(id) < len(*table.strs.Load())
}

// Len returns the number of interned strings (the empty string included).
func Len() int {
	return len(*table.strs.Load())
}

// Bytes returns the total backing bytes of all interned strings — the
// shared, deduplicated cost the bytes-per-record accounting amortises over
// every record referencing the table.
func Bytes() int64 {
	return table.bytes.Load()
}
