//go:build race

package repro

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
