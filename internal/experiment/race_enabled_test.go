//go:build race

package experiment

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
