//go:build !race

package fleet_test

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
