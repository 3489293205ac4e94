package snaps

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/snaps/snaps/internal/experiments"
)

// The documents that name packages, commands and experiment ids for a
// reader to run or open.
var driftDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	// A repository path, not the tail of a longer one (…/x/perf/cmd/benchstat).
	docPathRE = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples)/[a-z0-9_]+)`)
	docExpRE  = regexp.MustCompile(`-exp\s+([a-z0-9-]+)`)
)

// TestDocsNameWhatExists fails when a document points at a package, command,
// example or experiment that is not in the tree, or when a package under
// internal/ has no row in README's module table.
func TestDocsNameWhatExists(t *testing.T) {
	ids := append(experiments.All(), "all")
	var readme string
	for _, doc := range driftDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if doc == "README.md" {
			readme = text
		}
		for _, m := range docPathRE.FindAllStringSubmatch(text, -1) {
			if st, err := os.Stat(m[1]); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, m[1])
			}
		}
		for _, m := range docExpRE.FindAllStringSubmatch(text, -1) {
			if !slices.Contains(ids, m[1]) {
				t.Errorf("%s names -exp %s, which experiments.All() does not list", doc, m[1])
			}
		}
	}

	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "| `internal/") {
			table = append(table, line)
		}
	}
	for _, p := range pkgs {
		cell := "`internal/" + p.Name() + "`"
		if p.IsDir() && !slices.ContainsFunc(table, func(row string) bool { return strings.Contains(row, cell) }) {
			t.Errorf("README's module table has no row for %s", cell)
		}
	}
}
