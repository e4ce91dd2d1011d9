//go:build !race

package atc_test

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
