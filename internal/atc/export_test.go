package atc

// SetReadQuantum overrides the lone-merge read quantum (n <= 0 restores
// readQuantum), so tests can compare quantum rounds with one-read rounds.
func SetReadQuantum(a *ATC, n int) { a.quantum = n }
