package service

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// Router mode names accepted by Config.Router and the -router flags.
const (
	// RouterHash routes every query by the fixed hash of its canonical
	// keyword set: textually identical searches always share one shard.
	RouterHash = "hash"
	// RouterAffinity routes by measured overlap against each shard's
	// decaying resident keyword set (§6.1 at serving scale), falling back
	// to the fixed hash when no shard has meaningful affinity.
	RouterAffinity = "affinity"
)

// ParseRouter validates a router mode name; "" selects the default
// (affinity). NewPlacer refuses unknown names with the same error.
func ParseRouter(name string) (string, error) {
	switch name {
	case "", RouterAffinity:
		return RouterAffinity, nil
	case RouterHash:
		return RouterHash, nil
	}
	return "", fmt.Errorf("service: unknown router %q (want %s or %s)", name, RouterHash, RouterAffinity)
}

// CanonicalKeywords reduces a keyword list to its canonical routing form:
// case-folded, whitespace-trimmed, empty tokens dropped, deduplicated and
// sorted. Every routing decision — hash or affinity, in-process or across the
// distributed tier — goes through this one helper, so ["Apple", "apple"],
// ["apple", ""] and ["apple"] are the same query as far as shard placement is
// concerned (the sharing contract: overlapping searches must meet on one plan
// graph).
func CanonicalKeywords(keywords []string) []string {
	canon := make([]string, 0, len(keywords))
	seen := make(map[string]bool, len(keywords))
	for _, kw := range keywords {
		kw = strings.ToLower(strings.TrimSpace(kw))
		if kw == "" || seen[kw] {
			continue
		}
		seen[kw] = true
		canon = append(canon, kw)
	}
	sort.Strings(canon)
	return canon
}

// hashShard is the fixed fallback placement: FNV-1a over the canonical
// keyword set.
func hashShard(canon []string, shards int) int {
	h := fnv.New32a()
	for _, kw := range canon {
		h.Write([]byte(kw))
		h.Write([]byte{0})
	}
	return int(h.Sum32() % uint32(shards))
}

// Placer is the front desk's engine placement (§6.1's clustering at
// serving scale): canonicalization, one decaying resident keyword set per
// engine, and an exact-set memo. fleet.Frontend runs one over its backends,
// whether they are engines in this process or shard processes, so a query
// lands on the same engine index either way. Both modes maintain the
// affinity index — in hash mode it is consulted only to estimate how much
// sharing the fixed placement is missing — and both record every placement
// into it, so the index always reflects what is actually resident where.
type Placer struct {
	mode   string
	shards int
	svc    *metrics.Service
	minSim float64 // affinity below this falls back to the hash

	mu   sync.Mutex
	aff  *cluster.Affinity
	tick uint64
	// memo pins recently admitted canonical sets to their engine: an exact
	// repeat's retained state lives where it last ran, which keyword-level
	// similarity cannot see once several engines cover the same keywords.
	memo map[string]memoEntry
}

// memoEntry records where a canonical set last ran and when.
type memoEntry struct {
	shard int
	tick  uint64
}

// routerMemoTTL is how many routing decisions an exact-set pin survives
// without being refreshed — a few affinity half-lives, matching how long
// the decaying keyword sets consider state "recent".
const routerMemoTTL = 8 * cluster.DefaultHalfLife

// routerMinAffinity is the similarity floor below which no shard has a
// meaningful claim on a query and the fixed hash decides. It sits below
// §6.1's cluster-merge threshold (Tc = 0.5) deliberately: routing scores
// decayed resident sets, where even a just-admitted keyword weighs slightly
// under 1, and the common sharing case — a pair query overlapping a resident
// topic in one keyword — must clear the floor.
const routerMinAffinity = 0.3

// routerLoadPenalty bounds how much of a shard's affinity score its share of
// the fleet's admitted-keyword mass can cost it (the §6.1 over-sharing
// guard): at most this fraction, so load arbitrates near-ties instead of
// overruling coverage.
const routerLoadPenalty = 0.1

// routerMissTolerance is the coverage gap below which a placement away from
// the best-covered shard is not counted as a sharing miss (shards holding a
// topic equally can serve it equally).
const routerMissTolerance = 0.05

// NewPlacer builds a placer over n engines. mode is a Router mode name
// (ParseRouter); svc receives the per-decision routing counters.
func NewPlacer(mode string, shards int, svc *metrics.Service) (*Placer, error) {
	m, err := ParseRouter(mode)
	if err != nil {
		return nil, err
	}
	return &Placer{
		mode:   m,
		shards: shards,
		svc:    svc,
		minSim: routerMinAffinity,
		aff:    cluster.NewAffinity(shards, 0),
		memo:   map[string]memoEntry{},
	}, nil
}

// Route places a keyword set and feeds the decision back into the affinity
// index. The set is canonicalized first — folded, trimmed, empties dropped,
// deduplicated — so surface variants of one search can never land on
// different engines and silently re-pay remote source reads. Safe for
// concurrent use; decisions are serialized so score-then-record is atomic and
// identical queries converge on one engine.
//
// healthy, when non-nil, marks which shards may take new queries (the
// distributed tier routes around probes-failed and draining shards): a memo
// pin to an unhealthy shard is ignored, unhealthy shards score zero, and the
// hash fallback scans forward to the first healthy shard. The second return
// reports whether an unhealthy shard forced the placement away from where it
// would otherwise have gone. With healthy nil every shard is eligible.
func (rt *Placer) Route(keywords []string, healthy func(int) bool) (int, bool) {
	if rt.shards == 1 {
		return 0, false
	}
	canon := CanonicalKeywords(keywords)
	ok := func(s int) bool { return healthy == nil || healthy(s) }
	redirected := false
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tick++
	if rt.tick%cluster.DefaultHalfLife == 0 {
		for key, e := range rt.memo {
			if rt.tick-e.tick > routerMemoTTL {
				delete(rt.memo, key)
			}
		}
	}
	memoKey := strings.Join(canon, "\x00")

	// An exact repeat of a recently admitted set goes back to its shard:
	// its retained plan state lives there, which is the strongest possible
	// affinity signal.
	if rt.mode == RouterAffinity {
		if e, pinned := rt.memo[memoKey]; pinned && rt.tick-e.tick <= routerMemoTTL {
			if ok(e.shard) {
				rt.svc.RouteAffinity.Inc()
				rt.observe(memoKey, e.shard, canon)
				return e.shard, false
			}
			redirected = true
		}
	}

	// Score every shard. Eligibility is coverage: a shard must hold a
	// meaningful fraction of the query's keywords (Sim >= minSim) to claim
	// it at all. Ranking among eligible shards is depth times a mild load
	// penalty: Mass measures how much recently admitted work on these
	// keywords lives on the shard — the proxy for replayable state, which
	// saturating coverage cannot see once several shards touch the same
	// keywords — and the penalty (bounded at routerLoadPenalty of the
	// score) lets a cooler shard win only near-ties, §6.1's over-sharing
	// guard, never outvoting a real depth difference.
	totalLoad := 0.0
	for s := 0; s < rt.shards; s++ {
		totalLoad += rt.aff.Load(s)
	}
	bestShard, bestScore := -1, 0.0
	bestSimShard, bestSim := -1, 0.0
	sims := make([]float64, rt.shards)
	for s := 0; s < rt.shards; s++ {
		sim := rt.aff.Sim(s, canon)
		sims[s] = sim
		if sim > bestSim {
			bestSim, bestSimShard = sim, s
		}
		if sim < rt.minSim {
			continue
		}
		if !ok(s) {
			redirected = true
			continue
		}
		score := rt.aff.Mass(s, canon) * (1 - routerLoadPenalty*rt.aff.Load(s)/(totalLoad+1))
		if bestShard < 0 || score > bestScore {
			bestShard, bestScore = s, score
		}
	}

	var chosen int
	if rt.mode == RouterAffinity && bestShard >= 0 {
		chosen = bestShard
		rt.svc.RouteAffinity.Inc()
	} else {
		chosen = hashShard(canon, rt.shards)
		// The hash is the placement of last resort; when it lands on an
		// unhealthy shard, scan forward (deterministically) to the nearest
		// healthy one rather than refuse the query.
		if !ok(chosen) {
			redirected = true
			for d := 1; d < rt.shards; d++ {
				if c := (chosen + d) % rt.shards; ok(c) {
					chosen = c
					break
				}
			}
		}
		rt.svc.RouteHash.Inc()
	}
	// A sharing miss: some shard already held this query's topic, yet the
	// query landed on a shard covering meaningfully less of it and will
	// re-pay source reads for state that exists in the fleet. Affinity mode
	// makes this (near) zero; hash mode measures what the fixed placement
	// costs. The tolerance keeps ties between equally covered shards from
	// counting as misses.
	if bestSimShard >= 0 && bestSim >= rt.minSim && sims[chosen] < bestSim-routerMissTolerance {
		rt.svc.RouteSharingMiss.Inc()
	}
	rt.observe(memoKey, chosen, canon)
	return chosen, redirected
}

// observe feeds a placement back into the affinity index and the exact-set
// memo. Callers hold rt.mu.
func (rt *Placer) observe(memoKey string, shard int, canon []string) {
	rt.aff.Observe(shard, canon)
	rt.memo[memoKey] = memoEntry{shard: shard, tick: rt.tick}
}

// RouterStats is the routing view of a service's stats: the per-decision
// counters plus each shard's resident keyword set.
type RouterStats struct {
	// Mode is the configured router ("hash" or "affinity").
	Mode string `json:"mode"`
	// Decisions counts multi-shard placements; AffinityHits were routed by
	// measured overlap, HashRoutes by the fixed hash (every decision in
	// hash mode; the no-meaningful-affinity fallback in affinity mode).
	Decisions    int64 `json:"decisions"`
	AffinityHits int64 `json:"affinity_hits"`
	HashRoutes   int64 `json:"hash_routes"`
	// SharingMisses counts decisions placed away from the shard whose
	// resident set best covered the query; MissRate is their fraction of
	// all decisions — the estimated sharing-miss rate of the placement.
	SharingMisses int64   `json:"sharing_misses"`
	MissRate      float64 `json:"estimated_sharing_miss_rate"`
	// Shards describes each shard's decaying resident keyword set.
	Shards []RouterShardStats `json:"shards,omitempty"`
}

// RouterShardStats is one shard's affinity-index state.
type RouterShardStats struct {
	Shard int `json:"shard"`
	// Keywords is the effective resident keyword-set size; Load the decayed
	// admitted-keyword mass the load penalty reads.
	Keywords int     `json:"keywords"`
	Load     float64 `json:"load"`
}

// Stats snapshots the placer's routing state.
func (rt *Placer) Stats() RouterStats {
	st := RouterStats{
		Mode:          rt.mode,
		AffinityHits:  rt.svc.RouteAffinity.Value(),
		HashRoutes:    rt.svc.RouteHash.Value(),
		SharingMisses: rt.svc.RouteSharingMiss.Value(),
	}
	st.Decisions = st.AffinityHits + st.HashRoutes
	if st.Decisions > 0 {
		st.MissRate = float64(st.SharingMisses) / float64(st.Decisions)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for s := 0; s < rt.shards; s++ {
		st.Shards = append(st.Shards, RouterShardStats{Shard: s, Keywords: rt.aff.Size(s), Load: rt.aff.Load(s)})
	}
	return st
}
