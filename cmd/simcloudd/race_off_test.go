//go:build !race

package main

// raceEnabled reports whether the race detector instruments this build.
// Under it a server subprocess recovers its data dir several times slower,
// so the chaos harness sizes its startup budget from this.
const raceEnabled = false
