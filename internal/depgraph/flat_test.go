package depgraph

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/blocking"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/model"
)

// ds1k is a DS-1k data set and its scale-profile candidates with the first
// 64 repeated at the end, so that a pair listed twice is covered; built
// once per test binary.
var ds1k = sync.OnceValues(func() (*model.Dataset, []blocking.Candidate) {
	d := dataset.GenerateScale(dataset.ScaleTier(1000)).Dataset
	cands := blocking.NewLSH(blocking.ScaleLSHConfig()).Pairs(d, recordIDs(d))
	return d, append(cands, cands[:64]...)
})

// referenceWiring rebuilds the pair index and the certificate relations
// with the maps the record-addressed tables replaced, and wires every
// node's neighbours from them the way connectRelationships does.
func referenceWiring(g *Graph) (map[model.PairKey]NodeID, [][]Neighbour) {
	pairs := make(map[model.PairKey]NodeID, len(g.Nodes))
	for i := range g.Nodes {
		pairs[model.MakePairKey(g.Nodes[i].A, g.Nodes[i].B)] = NodeID(i)
	}
	relOf := map[model.RecordID][]relEdge{}
	for ci := range g.Dataset.Certificates {
		cert := &g.Dataset.Certificates[ci]
		for _, cr := range model.RelationsFor(cert.Type) {
			from, okF := cert.Roles[cr.From]
			to, okT := cert.Roles[cr.To]
			if okF && okT {
				relOf[from] = append(relOf[from], relEdge{to: to, rel: cr.Rel})
			}
		}
	}
	wired := make([][]Neighbour, len(g.Nodes))
	for i := range g.Nodes {
		var nbs []Neighbour
		for _, ea := range relOf[g.Nodes[i].A] {
			for _, eb := range relOf[g.Nodes[i].B] {
				if other, ok := pairs[model.MakePairKey(ea.to, eb.to)]; ok && ea.rel == eb.rel {
					nbs = append(nbs, Neighbour{Node: other, Rel: ea.rel})
				}
			}
		}
		if len(nbs) >= 2 {
			slices.SortFunc(nbs, func(a, b Neighbour) int {
				if a.Node != b.Node {
					return int(a.Node) - int(b.Node)
				}
				return int(a.Rel) - int(b.Rel)
			})
			nbs = slices.Compact(nbs)
		}
		wired[i] = nbs
	}
	return pairs, wired
}

// TestFlatTablesMatchMaps checks the record-addressed pair index and
// relation table against the maps they replaced on a DS-1k graph: NodeFor
// agrees with the pair map on every record pair in both orders, misses and
// the later node of a repeated pair included, and every node's neighbour
// list equals the map-based wiring.
func TestFlatTablesMatchMaps(t *testing.T) {
	d, cands := ds1k()
	g, _ := Build(d, DefaultConfig(), cands)
	if len(g.Nodes) < 1000 {
		t.Fatalf("only %d nodes; the fixture should exercise the tables", len(g.Nodes))
	}
	pairs, wired := referenceWiring(g)
	if len(pairs) == len(g.Nodes) {
		t.Fatal("no pair is listed twice; the fixture should cover one")
	}
	hits := 0
	for a := range d.Records {
		for b := a; b < len(d.Records); b++ {
			want, wantOK := pairs[model.MakePairKey(model.RecordID(a), model.RecordID(b))]
			for _, ab := range [][2]int{{a, b}, {b, a}} {
				got, ok := g.NodeFor(model.RecordID(ab[0]), model.RecordID(ab[1]))
				if ok != wantOK || got != want {
					t.Fatalf("NodeFor(%d, %d) = %d, %v; the pair map holds %d, %v", ab[0], ab[1], got, ok, want, wantOK)
				}
			}
			if wantOK {
				hits++
			}
		}
	}
	if hits != len(pairs) {
		t.Fatalf("%d pairs found, the pair map holds %d", hits, len(pairs))
	}
	for i := range g.Nodes {
		if !reflect.DeepEqual(g.Nodes[i].Neighbours, wired[i]) {
			t.Fatalf("node %d: neighbours %v, the map-based wiring gives %v", i, g.Nodes[i].Neighbours, wired[i])
		}
	}
}

// TestBuildStreamAllocsCeiling holds one BuildStream over the DS-1k stream
// (5 chunks, 11.7k nodes over 2.7k records) to the 11,100 allocations it
// measured, plus a tenth. Nearly all of them are the neighbour lists of the
// 8.2k wired nodes; the rest are the tables sized once per build and the
// growth of the atomic nodes, the atomic index maps and the miss lists. The
// record-keyed relation map and pair map this build replaced read 15,748,
// so a slice per record or a map entry per pair would not fit. AllocsPerRun
// measures at GOMAXPROCS 1, so the count does not depend on the machine's
// cores.
func TestBuildStreamAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	d, cands := ds1k()
	cfg := DefaultConfig()
	stream := func(emit func(chunk []blocking.Candidate)) {
		for lo := 0; lo < len(cands); lo += 4096 {
			emit(cands[lo:min(lo+4096, len(cands))])
		}
	}
	const ceiling = 11100 * 11 / 10
	if allocs := testing.AllocsPerRun(3, func() { BuildStream(d, cfg, stream) }); allocs > ceiling {
		t.Errorf("BuildStream over %d DS-1k candidates: %v allocations, ceiling %d", len(cands), allocs, ceiling)
	}
}

// raceEnabled is set by raceon_test.go under -race, where allocation counts
// mean nothing.
var raceEnabled bool
