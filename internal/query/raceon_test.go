//go:build race

package query

func init() { raceEnabled = true }
