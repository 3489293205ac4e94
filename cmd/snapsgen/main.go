// Command snapsgen exports a simulated vital-records data set as the three
// certificate CSV files, so the synthetic populations can be shared, loaded
// back with `snaps -births ... -deaths ... -marriages ...`, or used as test
// fixtures for other ER systems.
//
// Usage:
//
//	snapsgen -dataset ios -scale 0.25 -out ./data [-truth]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/snaps/snaps/internal/dataset"
	"github.com/snaps/snaps/internal/vitalio"
)

func main() {
	var (
		dsName = flag.String("dataset", "ios", "data set: ios, kil, ds, or bhic")
		scale  = flag.Float64("scale", 0.25, "population scale factor")
		certs  = flag.Int("certs", 0, "when > 0, use the DS-scale direct-emission generator targeting this many certificates (ignores -dataset/-scale/-census)")
		outDir = flag.String("out", ".", "output directory")
		truth  = flag.Bool("truth", false, "include ground-truth person-id columns")
		census = flag.Bool("census", false, "include decennial census households and export them as a fourth CSV")
	)
	flag.Parse()

	var pop *dataset.Population
	if *certs > 0 {
		pop = dataset.GenerateScale(dataset.ScaleTier(*certs))
	} else {
		cfg, err := dataset.ConfigByName(*dsName)
		if err != nil {
			log.Fatal(err)
		}
		cfg = cfg.Scaled(*scale)
		if *census {
			cfg = cfg.WithCensus()
		}
		pop = dataset.Generate(cfg)
	}
	cfg := pop.Config
	d := pop.Dataset
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	w := vitalio.NewWriter(d, *truth)
	writeFile := func(name string, f func(dst *os.File) error) {
		path := filepath.Join(*outDir, name)
		dst, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := f(dst); err != nil {
			dst.Close()
			log.Fatal(err)
		}
		if err := dst.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	writeFile(strings.ToLower(cfg.Name)+"_births.csv", func(dst *os.File) error { return w.WriteBirths(dst) })
	writeFile(strings.ToLower(cfg.Name)+"_deaths.csv", func(dst *os.File) error { return w.WriteDeaths(dst) })
	writeFile(strings.ToLower(cfg.Name)+"_marriages.csv", func(dst *os.File) error { return w.WriteMarriages(dst) })
	if *census {
		writeFile(strings.ToLower(cfg.Name)+"_census.csv", func(dst *os.File) error { return w.WriteCensus(dst) })
	}
	fmt.Printf("%d certificates, %d records, %d persons\n",
		len(d.Certificates), len(d.Records), len(pop.Persons))
}
