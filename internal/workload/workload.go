// Package workload generates the paper's two experimental datasets and query
// suites (§7):
//
//   - the GUS synthetic workload — the 358-relation Genomics Unified Schema
//     [21] populated with seeded random instances, Zipfian scores, join keys
//     and score-function coefficients, and 15 two-keyword user queries
//     yielding up to 20 conjunctive queries each;
//   - a Pfam/InterPro proxy — the documented protein-family schema populated
//     with significantly larger synthetic data, MySQL-style text-match
//     scores plus a publication-year score attribute, and 15 user queries of
//     4 conjunctive queries each (§7.5);
//   - the Figure 1 bioinformatics portal schema (UniProt / InterPro /
//     GeneOntology / NCBI Entrez) used by the worked examples of §1–§2.
//
// Relations materialise lazily: the schema declares all 358 GUS relations but
// only those a run touches are populated, with catalog statistics registered
// from the generator's parameters (score maxima are registered as the
// guaranteed bound 1.0, keeping thresholds sound).
package workload

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/batcher"
	"repro/internal/candidates"
	"repro/internal/catalog"
	"repro/internal/cq"
	"repro/internal/remotedb"
	"repro/internal/schemagraph"
)

// Workload bundles everything a run needs.
type Workload struct {
	// Name identifies the workload ("gus-1" … "gus-4", "pfam", "bio").
	Name string
	// Fleet holds the simulated remote databases.
	Fleet *remotedb.Fleet
	// Catalog holds the registered statistics.
	Catalog *catalog.Catalog
	// Schema is the schema graph with its keyword index.
	Schema *schemagraph.Graph
	// Submissions is the query suite with arrival times.
	Submissions []batcher.Submission
	// Gen is the candidate-generation configuration the bundled query suite
	// was built with (path lengths, match fan-out, scoring family), so that
	// sessions and services posing ad hoc searches over this workload expand
	// them the same way. Zero for custom-built workloads; Graph and Catalog
	// are (re)filled at the point of use.
	Gen candidates.Config
}

// ByName loads a bundled workload by its command-line name: "bio", "gus"
// (with its instance number) or "pfam", at the default scales.
func ByName(name string, instance int) (*Workload, error) {
	switch name {
	case "bio":
		return Bio()
	case "gus":
		return GUS(instance, GUSScaleDefault())
	case "pfam":
		return Pfam(PfamScaleDefault())
	default:
		return nil, fmt.Errorf("unknown workload %q (want bio, gus or pfam)", name)
	}
}

// UQs returns the user queries in arrival order.
func (w *Workload) UQs() []*cq.UQ {
	out := make([]*cq.UQ, len(w.Submissions))
	for i, s := range w.Submissions {
		out[i] = s.UQ
	}
	return out
}

// Prefix returns a copy of the workload truncated to the first n submissions
// (Figure 10 compares the first 5 user queries against all 15).
func (w *Workload) Prefix(n int) *Workload {
	if n > len(w.Submissions) {
		n = len(w.Submissions)
	}
	cp := *w
	cp.Submissions = w.Submissions[:n]
	return &cp
}

// OverlapVariants derives the overlapping topic variants of a multi-keyword
// search, the workload shard placement is measured on (loadgen's -overlap
// pool, the benchmark's pools and the service package's hash-vs-affinity
// test share these rules): the set minus its
// last keyword — textually different but heavily overlapping — and the set
// with a case-folded duplicate of its first keyword — canonically identical
// to the base, which pre-canonicalization routers scattered. Variants of one
// topic drive the same source relations, so every cross-shard split re-pays
// remote reads the resident shard already did. Returns nil for sets of
// fewer than two keywords.
func OverlapVariants(base []string) [][]string {
	if len(base) < 2 {
		return nil
	}
	drop := append([]string(nil), base[:len(base)-1]...)
	dup := append(append([]string(nil), base...), strings.ToUpper(base[0]))
	return [][]string{drop, dup}
}

// arrivalTimes spaces n arrivals with random gaps of up to maxGap ("posed
// within 6 seconds of one another", §7). Gaps are drawn in [0.3, 1.0]·maxGap
// so the suite spreads over the paper's ~80-second horizon rather than
// degenerating into one burst; gaps are drawn in [0.5, 1.0]·maxGap.
func arrivalTimes(n int, maxGap time.Duration, rnd func() float64) []time.Duration {
	out := make([]time.Duration, n)
	t := time.Duration(0)
	for i := 0; i < n; i++ {
		out[i] = t
		t += time.Duration((0.5 + 0.5*rnd()) * float64(maxGap))
	}
	return out
}
