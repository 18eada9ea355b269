//go:build !race

package tsstore

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
