//go:build race

package fleet_test

// raceEnabled reports whether the race detector is instrumenting this build.
// Allocation counts skip under it: a sync.Pool drops a share of what is put
// back, so pooled buffers are allocated again at random.
const raceEnabled = true
