// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the simulated data sets.
//
// Usage:
//
//	experiments -exp table4 [-scale 0.25]
//	experiments -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/snaps/snaps/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", fmt.Sprintf("experiment id: all or one of %v", experiments.All()))
	scale := flag.Float64("scale", 0.25, "workload scale factor relative to the full simulated data sets")
	flag.Parse()

	opt := experiments.DefaultOptions()
	opt.Scale = *scale

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.All()
	}
	for _, id := range ids {
		t0 := time.Now()
		if !experiments.Run(os.Stdout, id, opt) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", id, experiments.All())
			os.Exit(2)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(t0).Seconds())
	}
}
