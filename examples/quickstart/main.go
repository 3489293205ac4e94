// Quickstart: simulate a small historical population, resolve entities with
// SNAPS, build the pedigree graph and indexes, run one query, and print the
// top match's family pedigree.
package main

import (
	"fmt"
	"log"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/index"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
)

func main() {
	// 1. Data: a 1/10-scale Isle of Skye population, 1861-1901.
	pop := dataset.Generate(dataset.IOS().Scaled(0.1))
	d := pop.Dataset
	fmt.Printf("simulated %d certificates (%d person records)\n",
		len(d.Certificates), len(d.Records))

	// 2. Offline: unsupervised graph-based entity resolution.
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	fmt.Printf("resolved in %v: %d record links\n", pr.Total(), pr.Result.MergedNodes)

	// 3. Pedigree graph and search indexes.
	g := pedigree.Build(d, pr.Result.Store)
	k, s := index.Build(g, index.SimThreshold)
	engine := query.NewEngine(g, k, s)
	fmt.Printf("pedigree graph: %d entities\n", len(g.Nodes))

	// 4. Online: query by name (misspellings are fine) and rank.
	results := engine.Search(query.Query{FirstName: "donald", Surname: "macleod"})
	if len(results) == 0 {
		log.Fatal("no results")
	}
	fmt.Println("\ntop matches for 'donald macleod':")
	for i, r := range results {
		if i >= 5 {
			break
		}
		n := g.Node(r.Entity)
		fmt.Printf("  %d. %-26s score %.1f%%\n", i+1, n.DisplayName(), r.Score)
	}

	// 5. Extract and render the top match's family pedigree (2 generations).
	ped := g.Extract(results[0].Entity, 2)
	fmt.Println()
	fmt.Print(g.RenderText(ped))
}
