// Package simcache makes the similarity layer symbol-native: every string
// that reaches a hot comparison kernel in the offline build is already an
// interned symbol (internal/symbol), so the derived features the kernels
// need — bigram signatures, whitespace token splits — are pure functions of
// the symbol and can be computed once per distinct value for the life of
// the process instead of once per candidate pair.
//
// Two structures implement that:
//
//   - a feature slab (features.go): an append-only, lock-free-read table
//     keyed by symbol ID holding each distinct value's derived features,
//     filled lazily on first use;
//   - a process-wide memo (memo.go): sharded open-addressed hash tables
//     keyed by the packed (symbolA, symbolB) pair, one table per kernel,
//     so a repeated value pair is scored once across all workers, all
//     chunks, and all Extend flushes.
//
// The kernels (kernels.go) are drop-in symbol-typed equivalents of
// strsim.NameSim, strsim.Jaccard, and strsim.TokenJaccard: for every pair
// of symbols they return the bit-identical float of the string kernel on
// the symbols' strings (pinned by property and fuzz tests in this package).
//
// A caller that scores one value against many — the similarity index, which
// meets each distinct pair once and so gains nothing from the memo — uses a
// Probe (probe.go): the name kernel with the value's match tables built
// once, the same float again.
package simcache
