package query

import (
	"sync"
	"testing"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
)

// TestConcurrentSearchAndMemoisation hammers Engine.Search from many
// goroutines with probe values absent from the precomputed similarity
// index, so concurrent lookups race the stores into the index's probe
// cache. Run under -race this guards the lock-free index.Similarity and
// the read-only discipline of the serving bundle the live ingestion
// subsystem hot-swaps.
func TestConcurrentSearchAndMemoisation(t *testing.T) {
	p := dataset.Generate(dataset.IOS().Scaled(0.04))
	pr := er.Run(p.Dataset, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(p.Dataset, pr.Result.Store)
	k, s := index.Build(g, 0.5)
	engine := NewEngine(g, k, s)

	// Collect real names, then derive misspellings that force the
	// similarity index to probe and cache new values at query time.
	var names [][2]string
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 {
			names = append(names, [2]string{n.FirstNames[0], n.Surnames[0]})
		}
		if len(names) >= 32 {
			break
		}
	}
	if len(names) == 0 {
		t.Fatal("no names in generated graph")
	}
	mangle := func(s string, salt int) string {
		if s == "" {
			return s
		}
		b := []byte(s)
		b[salt%len(b)] = byte('a' + (salt*7)%26)
		return string(b)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				nm := names[(gi+i)%len(names)]
				first, sur := nm[0], nm[1]
				switch i % 3 {
				case 1:
					// Unseen probe: races the memoisation write path.
					first = mangle(first, gi*61+i)
				case 2:
					sur = mangle(sur, gi*67+i)
				}
				q := Query{FirstName: first, Surname: sur}
				if i%5 == 0 {
					q.Gender = model.Female
					q.YearFrom, q.YearTo = 1860, 1900
				}
				engine.Search(q)
			}
		}(gi)
	}
	wg.Wait()

	// A second pass over the same probes hits the memoised entries.
	for i, nm := range names {
		engine.Search(Query{FirstName: mangle(nm[0], i*61), Surname: nm[1]})
	}
}
