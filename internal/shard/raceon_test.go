//go:build race

package shard_test

func init() { raceEnabled = true }
