//go:build !race

package trace_test

// raceEnabled reports whether the race detector instruments this build.
// The allocation-count guard skips under -race: the detector's shadow
// allocations make testing.AllocsPerRun meaningless.
const raceEnabled = false
