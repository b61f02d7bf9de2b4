//go:build race

package pcr_test

func init() { raceEnabled = true }
