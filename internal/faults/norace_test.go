//go:build !race

package faults

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
