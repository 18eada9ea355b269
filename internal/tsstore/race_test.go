//go:build race

package tsstore

// raceEnabled reports a -race build, whose sync.Pool drops pooled items
// at random: allocation pins allow for the refills.
const raceEnabled = true
