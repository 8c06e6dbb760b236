//go:build race

package monitor

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
