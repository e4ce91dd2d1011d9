package atc

// SetReadQuantum overrides the lone-merge read quantum (n <= 0 restores
// readQuantum), so tests can compare quantum rounds with one-read rounds.
func SetReadQuantum(a *ATC, n int) { a.quantum = n }

// SetForceRecover makes every revive of a join node run RecoverHistory, as
// if each parked segment had missed rows, so tests can compare re-binding a
// parked segment with re-deriving its history.
func SetForceRecover(a *ATC, on bool) { a.forceRecover = on }
