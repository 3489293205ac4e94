package depgraph

import (
	"reflect"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/par/partest"
)

// graphsEqual compares every exported component two builds can disagree
// on: atomic nodes (values, similarities, interning order), relational
// nodes (ids, bindings, neighbours), and groups. Node and group IDs are
// positional, so slice equality IS id equality.
func graphsEqual(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Atomics, want.Atomics) {
		t.Fatalf("%s: atomic nodes differ (%d vs %d)", label, len(got.Atomics), len(want.Atomics))
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("%s: relational nodes differ (%d vs %d)", label, len(got.Nodes), len(want.Nodes))
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("%s: groups differ (%d vs %d)", label, len(got.Groups), len(want.Groups))
	}
}

// TestBuildStreamMatchesBuild locks the streamed build to the monolithic
// one: feeding the same candidates through BuildStream in chunks of any
// size — including pathological sizes of 1 and sizes that straddle the
// phase-2 filter — must produce an identical graph. This is the
// chunk-interleaving determinism argument of DESIGN.md §4.4 made
// executable.
func TestBuildStreamMatchesBuild(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	d := p.Dataset
	cfg := DefaultConfig()
	lsh := blocking.NewLSH(blocking.DefaultLSHConfig())
	cands := lsh.Pairs(d, recordIDs(d))
	if len(cands) < 100 {
		t.Fatalf("only %d candidates; dataset too small to exercise chunking", len(cands))
	}
	want, wantStats := Build(d, cfg, cands)

	for _, chunkSize := range []int{1, 7, 333, len(cands)/2 + 1, len(cands)} {
		g, stats := BuildStream(d, cfg, func(emit func(chunk []blocking.Candidate)) {
			for lo := 0; lo < len(cands); lo += chunkSize {
				hi := lo + chunkSize
				if hi > len(cands) {
					hi = len(cands)
				}
				emit(cands[lo:hi])
			}
		})
		graphsEqual(t, "chunkSize="+itoa(chunkSize), g, want)
		if stats.Candidates != wantStats.Candidates {
			t.Fatalf("chunkSize=%d: Candidates = %d, want %d", chunkSize, stats.Candidates, wantStats.Candidates)
		}
	}

	// Worker-count invariance on top of chunk-size invariance: the parallel
	// scoring inside a chunk must not reorder interning.
	for _, workers := range []int{2, 5} {
		partest.WithProcs(t, workers)
		g, _ := Build(d, cfg, cands)
		graphsEqual(t, "workers="+itoa(workers), g, want)
	}
}

// TestBuildStreamAtomicKeyAcrossChunks puts a chunk boundary on every side
// of a repeated atomic key. With the boundary between the two occurrences
// of smith/smith the first is interned serially as a miss and the second is
// resolved against the index in the next chunk's parallel pass; with both
// in one chunk both miss and the serial pass interns one node. Either way
// angus/angus, new in the later candidate, takes the next id, as in the
// one-chunk build.
func TestBuildStreamAtomicKeyAcrossChunks(t *testing.T) {
	d := figure3Dataset()
	cfg := DefaultConfig()
	cands := []blocking.Candidate{
		{A: 0, B: 3}, // mary/mary
		{A: 1, B: 4}, // flora/flora, smith/smith
		{A: 2, B: 5}, // angus/angus, smith/smith again
		{A: 1, B: 5}, // smith/smith a third time; not a node (mother, father)
	}
	chunked := func(cuts ...int) *Graph {
		g, _ := BuildStream(d, cfg, func(emit func(chunk []blocking.Candidate)) {
			lo := 0
			for _, hi := range append(cuts, len(cands)) {
				emit(cands[lo:hi])
				lo = hi
			}
		})
		return g
	}
	smith, angus := model.Intern("smith"), model.Intern("angus")
	for _, procs := range []int{1, 4} {
		partest.WithProcs(t, procs)
		want := chunked()
		if len(want.Atomics) != 4 || len(want.Nodes) != 3 ||
			want.atomicID(MakeAtomicKey(model.Surname, smith, smith)) != 2 ||
			want.atomicID(MakeAtomicKey(model.FirstName, angus, angus)) != 3 {
			t.Fatalf("procs=%d: one-chunk build has atomics %v; the fixture expects smith/smith at 2 and angus/angus at 3", procs, want.Atomics)
		}
		for _, cuts := range [][]int{{1}, {2}, {3}, {1, 2, 3}} {
			g := chunked(cuts...)
			graphsEqual(t, "procs="+itoa(procs)+" first cut="+itoa(cuts[0]), g, want)
			if !reflect.DeepEqual(g.atomicIndex, want.atomicIndex) {
				t.Fatalf("procs=%d cuts=%v: atomic index differs", procs, cuts)
			}
		}
	}
}

// TestBuildStreamReusedChunkBuffer checks the documented producer
// contract: chunk slices are only read during emit, so a producer reusing
// one buffer for every chunk must still yield the monolithic graph.
func TestBuildStreamReusedChunkBuffer(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.05))
	d := p.Dataset
	cfg := DefaultConfig()
	cands := blocking.NewLSH(blocking.DefaultLSHConfig()).Pairs(d, recordIDs(d))
	want, _ := Build(d, cfg, cands)

	buf := make([]blocking.Candidate, 0, 100)
	g, _ := BuildStream(d, cfg, func(emit func(chunk []blocking.Candidate)) {
		for lo := 0; lo < len(cands); lo += 100 {
			hi := lo + 100
			if hi > len(cands) {
				hi = len(cands)
			}
			buf = append(buf[:0], cands[lo:hi]...)
			emit(buf)
		}
	})
	graphsEqual(t, "reused buffer", g, want)
}

func recordIDs(d *model.Dataset) []model.RecordID {
	ids := make([]model.RecordID, len(d.Records))
	for i := range d.Records {
		ids[i] = d.Records[i].ID
	}
	return ids
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
