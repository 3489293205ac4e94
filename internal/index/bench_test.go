package index

import "testing"

// BenchmarkIndexRebuild measures the full keyword + similarity index build
// over a resolved graph of the benchmark's serve tier (DS-4k) — the cost of
// a cold start and of every flush that falls back to a full rebuild. The
// all-pairs name-similarity precompute is the hot part; pairs/op is how
// many distinct name pairs it scored and ns/pair the whole build's time
// per scored pair (keyword postings, scoring and list ordering together).
func BenchmarkIndexRebuild(b *testing.B) {
	g := scaleGraph(4000, 1)
	pairs := mPairsScored.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, 0.5)
	}
	pairs = mPairsScored.Value() - pairs
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}

// BenchmarkProbeUnseen measures the one-sided probe on names no record
// carries — the typo path of a search, which the repo benchmark sees from
// outside as index.sim_miss_p50_ms: each surname of the DS-4k graph held by
// a single entity (the tail) with its last two letters transposed, probed
// through Similar on an index that has not seen it. The index is rebuilt
// off the clock whenever every typo has been memoised.
func BenchmarkProbeUnseen(b *testing.B) {
	g := scaleGraph(4000, 1)
	k, s := Build(g, 0.5)
	var typos []string
	for v, pl := range k.postings[FieldSurname] {
		if n := len(v); pl.n == 1 && n >= 4 && v[n-1] != v[n-2] {
			typo := v[:n-2] + string([]byte{v[n-1], v[n-2]})
			if _, indexed := k.postings[FieldSurname][typo]; !indexed {
				typos = append(typos, typo)
			}
		}
	}
	if len(typos) < 100 {
		b.Fatalf("only %d unseen transposed tail surnames", len(typos))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(typos) == 0 {
			b.StopTimer()
			_, s = Build(g, 0.5)
			b.StartTimer()
		}
		sinkSimilar = s.Similar(FieldSurname, typos[i%len(typos)])
	}
}

var sinkSimilar SimilarList
