package index

import "testing"

// BenchmarkIndexRebuild measures the full keyword + similarity index build
// over a resolved graph of the benchmark's serve tier (DS-4k) — the cost of
// a cold start and of every flush that falls back to a full rebuild. The
// all-pairs name-similarity precompute is the hot part; pairs/op is how
// many distinct name pairs it scored.
func BenchmarkIndexRebuild(b *testing.B) {
	g := scaleGraph(4000, 1)
	pairs := mPairsScored.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, 0.5)
	}
	b.ReportMetric(float64(mPairsScored.Value()-pairs)/float64(b.N), "pairs/op")
}
