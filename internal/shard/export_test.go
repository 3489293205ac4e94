package shard

import "github.com/snaps/snaps/internal/pedigree"

// Classify hands the external tests the flush classification Advance makes.
func Classify(g, prevG *pedigree.Graph) (oldToNew []pedigree.NodeID, isDirty []bool, dirty int) {
	cl := classify(g, prevG)
	return cl.oldToNew, cl.isDirty, cl.dirty
}
