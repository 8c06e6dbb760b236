//go:build race

package trace_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
