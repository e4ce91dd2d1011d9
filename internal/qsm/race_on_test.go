//go:build race

package qsm_test

// raceEnabled reports whether the race detector is instrumenting this build.
// Single-goroutine differentials skip under it: one engine goroutine gives
// the detector nothing to find, and its ~10x slowdown would only stretch the
// race gate.
const raceEnabled = true
