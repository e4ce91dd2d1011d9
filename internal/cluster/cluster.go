// Package cluster groups user queries into separately executed plan graphs
// (§6.1 "preventing over-sharing of results"): a single shared graph can
// thrash when unrelated queries contend for the ATC, so queries are clustered
// around the workload's most frequently referenced source relations and each
// cluster gets its own graph and ATC — the ATC-CL configuration of §7.
package cluster

import (
	"math"
	"sort"

	"repro/internal/cq"
)

// Config holds the two thresholds of §6.1.
type Config struct {
	// Tm is the minimum number of references a user query must make to a
	// frequent source to join that source's initial cluster.
	Tm int
	// Tc is the Jaccard-similarity threshold above which clusters merge.
	Tc float64
}

// Defaults returns the thresholds used by the experiments: a user query
// joins a source's initial cluster only when it references the source more
// than four times across its conjunctive queries (strong reliance), and
// clusters merge above 50% Jaccard overlap. These keep clusters small and
// high-overlap, which is what lets ATC-CL retain most of sharing's savings
// while splitting the contention of a single graph (§6.1, §7.1).
func (c Config) Defaults() Config {
	if c.Tm == 0 {
		c.Tm = 4
	}
	if c.Tc == 0 {
		c.Tc = 0.5
	}
	return c
}

// Cluster partitions the user queries. Each returned group is executed on
// its own plan graph; every query appears in exactly one group.
func Cluster(uqs []*cq.UQ, cfg Config) [][]*cq.UQ {
	cfg = cfg.Defaults()
	// Count per-UQ references to each source relation.
	refs := make([]map[string]int, len(uqs))
	freq := map[string]int{}
	for i, uq := range uqs {
		refs[i] = map[string]int{}
		for _, q := range uq.CQs {
			for _, a := range q.Atoms {
				refs[i][a.Rel]++
				freq[a.Rel]++
			}
		}
	}
	// Initial clusters: one per source, holding the UQ indexes that
	// reference it more than Tm times.
	rels := make([]string, 0, len(freq))
	for r := range freq {
		rels = append(rels, r)
	}
	sort.Slice(rels, func(i, j int) bool {
		if freq[rels[i]] != freq[rels[j]] {
			return freq[rels[i]] > freq[rels[j]]
		}
		return rels[i] < rels[j]
	})
	var clusters []map[int]bool
	for _, r := range rels {
		c := map[int]bool{}
		for i := range uqs {
			if refs[i][r] > cfg.Tm {
				c[i] = true
			}
		}
		if len(c) > 0 {
			clusters = append(clusters, c)
		}
	}
	// Merge clusters whose Jaccard similarity exceeds Tc, to fixpoint.
	for merged := true; merged; {
		merged = false
		for i := 0; i < len(clusters) && !merged; i++ {
			for j := i + 1; j < len(clusters) && !merged; j++ {
				if jaccard(clusters[i], clusters[j]) > cfg.Tc {
					for k := range clusters[j] {
						clusters[i][k] = true
					}
					clusters = append(clusters[:j], clusters[j+1:]...)
					merged = true
				}
			}
		}
	}
	// Deterministic assignment: each UQ joins the largest cluster containing
	// it (ties: earliest cluster); uncovered UQs become singletons.
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(clusters[order[a]]) > len(clusters[order[b]]) })
	assigned := make([]int, len(uqs))
	for i := range assigned {
		assigned[i] = -1
	}
	for _, ci := range order {
		for k := range clusters[ci] {
			if assigned[k] < 0 {
				assigned[k] = ci
			}
		}
	}
	groups := map[int][]*cq.UQ{}
	var keys []int
	next := len(clusters)
	for i, uq := range uqs {
		g := assigned[i]
		if g < 0 {
			g = next
			next++
		}
		if _, ok := groups[g]; !ok {
			keys = append(keys, g)
		}
		groups[g] = append(groups[g], uq)
	}
	sort.Ints(keys)
	out := make([][]*cq.UQ, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}

// DefaultHalfLife is the decay horizon of an Affinity index, in observations:
// a keyword's admission mass halves every this many Observe calls, so the
// resident sets track the recent workload the way §6.1's clusters track one
// batch.
const DefaultHalfLife = 256

// affEntry is one decayed quantity: a mass plus the tick it was last folded
// at. Its effective value at tick t is w·2^−((t−tick)/halfLife).
type affEntry struct {
	w    float64
	tick uint64
}

// Affinity is the online, serving-scale form of §6.1's similarity-driven
// clustering: one decaying resident keyword set per group (in the serving
// layer, per shard), fed by the canonical keyword sets of admitted queries.
// Sim measures how much of a new query's keyword set is already resident in
// a group, weighting each keyword by recency-decayed admission mass — the
// same overlap notion Cluster applies to a fixed batch, followed online.
// Load exposes each group's decayed admitted-keyword mass as a pressure
// signal for placement penalties.
//
// Affinity is not safe for concurrent use; callers (the service router)
// serialize access, like the rest of the engine code.
type Affinity struct {
	groups     int
	halfLife   float64
	pruneEvery uint64 // sweep cadence, tied to the decay horizon
	tick       uint64
	sets       []map[string]*affEntry
	load       []affEntry
}

// NewAffinity builds an index over n groups. halfLife <= 0 selects
// DefaultHalfLife.
func NewAffinity(n int, halfLife float64) *Affinity {
	if n < 1 {
		n = 1
	}
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	a := &Affinity{groups: n, halfLife: halfLife, sets: make([]map[string]*affEntry, n), load: make([]affEntry, n)}
	// Sweep once per half-life: by then the oldest untouched entries have
	// lost half their mass, so the scan retires work proportional to decay
	// instead of on a cadence unrelated to the configured horizon.
	a.pruneEvery = uint64(halfLife)
	if a.pruneEvery < 1 {
		a.pruneEvery = 1
	}
	for i := range a.sets {
		a.sets[i] = map[string]*affEntry{}
	}
	return a
}

// Groups returns the number of groups the index covers.
func (a *Affinity) Groups() int { return a.groups }

// decayed folds an entry's mass forward to the current tick.
func (a *Affinity) decayed(e *affEntry) float64 {
	if e == nil || e.w == 0 {
		return 0
	}
	return e.w * math.Exp2(-float64(a.tick-e.tick)/a.halfLife)
}

// pruneThreshold drops entries whose decayed mass no longer influences
// similarity, bounding the resident sets under churn.
const pruneThreshold = 0.05

// Observe advances the index one tick and folds a query's keywords into the
// group it was placed on: each keyword gains one unit of admission mass, and
// the group's load gains the keyword count.
func (a *Affinity) Observe(group int, keywords []string) {
	if group < 0 || group >= a.groups {
		return
	}
	a.tick++
	set := a.sets[group]
	for _, kw := range keywords {
		e := set[kw]
		if e == nil {
			e = &affEntry{}
			set[kw] = e
		}
		e.w = a.decayed(e) + 1
		e.tick = a.tick
	}
	l := &a.load[group]
	l.w = a.decayed(l) + float64(len(keywords))
	l.tick = a.tick
	if a.tick%a.pruneEvery == 0 {
		a.prune()
	}
}

// prune removes entries whose decayed mass fell below the threshold.
func (a *Affinity) prune() {
	for _, set := range a.sets {
		for kw, e := range set {
			if a.decayed(e) < pruneThreshold {
				delete(set, kw)
			}
		}
	}
}

// Sim scores a query's expected overlap with a group: the fraction of its
// keywords resident in the group's decayed set, each keyword contributing
// min(1, decayed mass). 1.0 means every keyword was recently admitted there;
// 0 means the group has seen none of them.
func (a *Affinity) Sim(group int, keywords []string) float64 {
	if group < 0 || group >= a.groups || len(keywords) == 0 {
		return 0
	}
	set := a.sets[group]
	sum := 0.0
	for _, kw := range keywords {
		if w := a.decayed(set[kw]); w > 1 {
			sum += 1
		} else {
			sum += w
		}
	}
	return sum / float64(len(keywords))
}

// Mass returns the group's total decayed admission mass over the given
// keywords, uncapped: unlike Sim, which saturates per keyword and measures
// coverage, Mass measures depth — how much recently admitted work on these
// keywords lives in the group. It is the ranking signal for placement:
// between two groups covering a query equally, the one with deeper mass
// holds more replayable state.
func (a *Affinity) Mass(group int, keywords []string) float64 {
	if group < 0 || group >= a.groups {
		return 0
	}
	set := a.sets[group]
	sum := 0.0
	for _, kw := range keywords {
		sum += a.decayed(set[kw])
	}
	return sum
}

// Load returns the group's decayed admitted-keyword mass.
func (a *Affinity) Load(group int) float64 {
	if group < 0 || group >= a.groups {
		return 0
	}
	return a.decayed(&a.load[group])
}

// Size returns how many keywords are effectively resident in the group's set
// (decayed mass above the prune threshold).
func (a *Affinity) Size(group int) int {
	if group < 0 || group >= a.groups {
		return 0
	}
	n := 0
	for _, e := range a.sets[group] {
		if a.decayed(e) >= pruneThreshold {
			n++
		}
	}
	return n
}

func jaccard(a, b map[int]bool) float64 {
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
