package strsim_test

import (
	"fmt"

	"github.com/snaps/snaps/internal/strsim"
)

func ExampleJaroWinkler() {
	fmt.Printf("%.4f\n", strsim.JaroWinkler("macdonald", "mcdonald"))
	fmt.Printf("%.4f\n", strsim.JaroWinkler("mary", "mary"))
	fmt.Printf("%.4f\n", strsim.JaroWinkler("mary", "zxqw"))
	// Output:
	// 0.9667
	// 1.0000
	// 0.0000
}

func ExampleNameSim() {
	// Single tokens behave like Jaro-Winkler; transposed double forenames
	// are rescued by token matching.
	fmt.Printf("%.2f\n", strsim.NameSim("jane elizabeth", "elizabeth jane"))
	fmt.Printf("%.2f\n", strsim.JaroWinkler("jane elizabeth", "elizabeth jane"))
	// Output:
	// 1.00
	// 0.74
}

func ExampleJaccard() {
	fmt.Printf("%.4f\n", strsim.Jaccard("night", "nacht"))
	// Output:
	// 0.1429
}
