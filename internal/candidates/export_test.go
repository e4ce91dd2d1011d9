package candidates

// ReferenceGenerate is the one-pass generator of reference_test.go, for the
// external tests (which import the workloads, as this package cannot).
var ReferenceGenerate = referenceGenerate

// Counts reports how many join trees the skeleton holds, how many of them
// yield a query, and how many coefficients one arrival draws.
func (s *Skeleton) Counts() (nets, kept, draws int) { return len(s.nets), s.kept, s.draws }

// CacheCap is the expansion cache's bound.
const CacheCap = cacheCap
