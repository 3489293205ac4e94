// Package shard partitions the serving tier into N self-contained shards,
// each owning a disjoint subset of the pedigree entities with its own
// keyword index, similarity index and generation stamp, all fronted by a
// coordinator that caches merged rankings, fans a search out across the
// shards and merges the per-shard bounded top-m rankings into the exact
// ranking the single-shard engine would produce.
//
// Partitioning is by blocking-key hash: an entity is owned by the shard
// its canonical record's name key (first name + surname, the same key the
// LSH blocker groups records by) hashes to. Entity resolution and the
// pedigree graph stay GLOBAL — LSH blocking emits candidate pairs across
// different blocking keys (the surname-only band pass guarantees it), so
// resolving per-partition would split entities and break byte-equivalence
// with the single-shard engine. What shards own is the serving state built
// FROM the global graph: per-value posting lists filtered to owned
// entities and similarity lists computed over the shard's own value
// universe (order-preserving subsets of the global lists). The result cache
// is the coordinator's, one per serving tier, keyed by the global
// generation.
package shard

import (
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Route maps a blocking name key to a shard in [0, shards). The hash is
// FNV-1a over "first|surname" — the same composite key internal/blocking
// uses — computed without materialising the concatenation. Route is a pure
// function: the same key and shard count always land on the same shard,
// and any key lands in range for any positive shard count.
func Route(firstName, surname string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(firstName); i++ {
		h ^= uint64(firstName[i])
		h *= fnvPrime
	}
	h ^= uint64('|')
	h *= fnvPrime
	for i := 0; i < len(surname); i++ {
		h ^= uint64(surname[i])
		h *= fnvPrime
	}
	return int(h % uint64(shards))
}

// Owner returns the shard owning a pedigree node: the route of the name
// key of the node's lowest-numbered record. Records are append-only and a
// record never changes its name, so ownership is a pure function of the
// node's record set — a node whose record set is unchanged across
// generations (a "clean" node, see classify) is owned by the same shard in
// both, which is what lets an ingest flush reuse untouched shards wholesale.
func Owner(g *pedigree.Graph, n *pedigree.Node, shards int) int {
	if shards <= 1 || len(n.Records) == 0 {
		return 0
	}
	rec := g.Dataset.Record(minRecord(n))
	return Route(rec.FirstName(), rec.Surname(), shards)
}

// minRecord returns the lowest-numbered record of a node with records: the
// one both ownership and a cached row's anchor are read from.
func minRecord(n *pedigree.Node) model.RecordID {
	min := n.Records[0]
	for _, r := range n.Records[1:] {
		if r < min {
			min = r
		}
	}
	return min
}

// computeOwners assigns every node of g to its owning shard and counts the
// nodes per shard.
func computeOwners(g *pedigree.Graph, shards int) (owners []int32, counts []int) {
	owners = make([]int32, len(g.Nodes))
	counts = make([]int, shards)
	for i := range g.Nodes {
		s := Owner(g, &g.Nodes[i], shards)
		owners[i] = int32(s)
		counts[s]++
	}
	return owners, counts
}
