//go:build race

package depgraph

func init() { raceEnabled = true }
