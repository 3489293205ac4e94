// Anonymised deployment: the paper's Sec. 9 workflow. A sensitive data set
// is anonymised (public-corpus name mapping, global year shift, k-anonymous
// causes of death), the SNAPS pipeline is rebuilt on the anonymised data,
// and the same queries work — with no sensitive value ever served.
package main

import (
	"fmt"

	"github.com/snaps/snaps/internal/anonymize"
	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
)

func main() {
	// The "sensitive" original.
	pop := dataset.Generate(dataset.IOS().Scaled(0.1))
	sensitive := pop.Dataset

	cfg := anonymize.DefaultConfig()
	anon, mapping := anonymize.Anonymize(sensitive, cfg)
	fmt.Printf("anonymised %d records; %d distinct names remapped; years shifted by %d\n",
		len(anon.Records), len(mapping), cfg.YearOffset)

	// Show a few mappings: similar sensitive names stay similar.
	fmt.Println("\nsample name mappings (sensitive -> public):")
	shown := 0
	for _, orig := range []string{"macdonald", "macdonld", "macleod", "mary", "marion"} {
		if repl, ok := mapping[orig]; ok {
			fmt.Printf("  %-12s -> %s\n", orig, repl)
			shown++
		}
	}
	if shown == 0 {
		fmt.Println("  (sample names not present in this draw)")
	}

	// Causes of death: rare causes were generalised.
	rare := 0
	for i := range anon.Certificates {
		if anon.Certificates[i].Type == model.Death && anon.Certificates[i].Cause == "not known" {
			rare++
		}
	}
	fmt.Printf("\n%d death certificates carry the generalised cause \"not known\"\n", rare)

	// The full pipeline runs unchanged on the anonymised data.
	pr := er.Run(anon, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(anon, pr.Result.Store)
	coord := shard.Partition(g, shard.Options{SimThreshold: 0.5})
	fmt.Printf("\nrebuilt pipeline on anonymised data: %d entities\n", len(g.Nodes))

	// Query with a PUBLIC name (users of the demo site never see Scottish
	// names).
	var probe *pedigree.Node
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if len(n.FirstNames) > 0 && len(n.Surnames) > 0 && len(n.Records) >= 4 {
			probe = n
			break
		}
	}
	if probe == nil {
		fmt.Println("no suitable entity to demo")
		return
	}
	results := coord.Search(query.Query{FirstName: probe.FirstNames[0], Surname: probe.Surnames[0]})
	fmt.Printf("\nquery %q -> %d ranked entities; top match pedigree:\n\n",
		probe.FirstNames[0]+" "+probe.Surnames[0], len(results))
	ped := g.Extract(results[0].Entity, 2)
	fmt.Print(g.RenderText(ped))
}
