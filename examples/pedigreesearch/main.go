// Pedigree search for clinical genetics: the motivating workload of the
// paper. Given a patient referred to a clinical genetics service, find
// their entity in the resolved vital records, extract the family pedigree,
// and summarise the causes of death among relatives — the raw material of a
// familial-cancer risk assessment.
package main

import (
	"fmt"
	"sort"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/depgraph"
	"github.com/snaps/snaps/internal/er"
	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/pedigree"
	"github.com/snaps/snaps/internal/query"
	"github.com/snaps/snaps/internal/shard"
)

func main() {
	pop := dataset.Generate(dataset.IOS().Scaled(0.15))
	d := pop.Dataset
	pr := er.Run(d, depgraph.DefaultConfig(), er.DefaultConfig())
	g := pedigree.Build(d, pr.Result.Store)
	coord := shard.Partition(g, shard.Options{SimThreshold: 0.5})

	// The genetics team searches for a patient by name and rough birth
	// period, exactly like the web form of Fig. 5.
	q := query.Query{
		FirstName: "catherine",
		Surname:   "mackinnon",
		Gender:    model.Female,
		YearFrom:  1861, YearTo: 1901,
	}
	results := coord.Search(q)
	if len(results) == 0 {
		fmt.Println("patient not found")
		return
	}
	patient := results[0].Entity
	n := g.Node(patient)
	fmt.Printf("patient: %s (records from %d-%d)\n\n", n.DisplayName(), n.MinYear, n.MaxYear)

	// Extract the two-generation pedigree and walk every member's death
	// certificate for causes of death.
	ped := g.Extract(patient, 2)
	fmt.Print(g.RenderText(ped))

	fmt.Println("\ncauses of death in the pedigree:")
	causes := map[string]int{}
	members := make([]pedigree.NodeID, 0, len(ped.Members))
	for id := range ped.Members {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, id := range members {
		for _, rid := range g.Node(id).Records {
			rec := d.Record(rid)
			if rec.Role != model.Dd {
				continue
			}
			cert := &d.Certificates[rec.Cert]
			if cert.Cause == "" {
				continue
			}
			causes[cert.Cause]++
			fmt.Printf("  %-26s died %d aged %-3d %s\n",
				g.Node(id).DisplayName(), cert.Year, cert.Age, cert.Cause)
		}
	}
	if len(causes) == 0 {
		fmt.Println("  (no death certificates among pedigree members)")
		return
	}

	// Flag recurring causes: the signal a geneticist looks for.
	fmt.Println("\nrecurring causes:")
	type cc struct {
		cause string
		n     int
	}
	var list []cc
	for c, n := range causes {
		list = append(list, cc{c, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].cause < list[j].cause
	})
	for _, x := range list {
		marker := ""
		if x.n > 1 {
			marker = "  <-- familial pattern candidate"
		}
		fmt.Printf("  %-30s x%d%s\n", x.cause, x.n, marker)
	}
}
