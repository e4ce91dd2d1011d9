// Package qsys is a from-scratch Go implementation of the shared, pipelined
// top-k keyword-search query processor of
//
//	Marie Jacob and Zachary G. Ives,
//	"Sharing Work in Keyword Search over Databases", SIGMOD 2011.
//
// The Q System is a middleware layer over remote (simulated) SQL databases:
// keyword queries are expanded into ranked candidate networks (conjunctive
// queries), batches of queries are multi-query-optimized into shared input
// assignments, factored into a query plan graph of split / m-join /
// rank-merge operators, and executed fully pipelined under the ATC
// coordinator. Query plan graphs and their in-memory state persist from one
// execution to the next, so later queries graft onto existing plans and reuse
// buffered results (§6 of the paper).
//
// Two API levels are exposed:
//
//   - System: an interactive session over a database fleet. Pose keyword
//     searches over time; every search benefits from the state earlier
//     searches left behind. See examples/quickstart.
//   - the experiment drivers (Table4, Figure7 … Figure12): regenerate every
//     table and figure of the paper's evaluation. See cmd/qsys-bench and
//     bench_test.go.
//
// All substrates — the simulated remote DBMSs, schema graph, candidate
// network generation, scoring models, optimizer, operators, state manager and
// workload generators — are implemented in this repository with the standard
// library only; see DESIGN.md for the system inventory.
package qsys

import (
	"fmt"
	"time"

	"repro/internal/batcher"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/tuple"
)

// Config configures a System session.
type Config struct {
	// K is the default number of answers per search (the paper uses 50).
	K int
	// Seed drives the deterministic delay model.
	Seed uint64
	// RealTime makes delays actually sleep (live demos); the default is the
	// deterministic virtual clock used by all experiments.
	RealTime bool
	// MemoryBudget bounds retained middleware state in rows (0 = unbounded);
	// exceeding it triggers LRU eviction (§6.3).
	MemoryBudget int
	// MaxCQs caps candidate networks per search (paper workloads use ≤20).
	MaxCQs int
	// Model selects the scoring model family (§2.1); default QSystem.
	Model ModelFamily
	// ChargeOptimizer adds measured optimization time to the session clock.
	ChargeOptimizer bool
}

// ModelFamily selects a scoring model (§2.1).
type ModelFamily int

const (
	// ModelQSystem is the Q System product model with learned edge costs.
	ModelQSystem ModelFamily = iota
	// ModelDISCOVER is the DISCOVER sum model.
	ModelDISCOVER
	// ModelBANKS is the BANKS/BLINKS-style weighted-sum model.
	ModelBANKS
)

// System is an interactive Q System session over a database fleet: a single
// shared plan graph whose operators and state persist across searches, like
// the paper's continuously running middleware.
type System struct {
	genCfg candidates.Config
	pipe   *core.Pipeline
	// expansions holds the candidate networks of recently posed keyword sets.
	expansions *candidates.Cache

	users  map[string]*dist.RNG
	nextUQ int
	cfg    Config
}

// NewSystem opens a session over a workload's fleet, catalog and schema
// graph. Most callers obtain those from one of the bundled workloads (Bio,
// GUS, Pfam) or by building databases with NewDatabase.
func NewSystem(w *Workload, cfg Config) *System {
	if cfg.K == 0 {
		cfg.K = 50
	}
	if cfg.MaxCQs == 0 {
		cfg.MaxCQs = 20
	}
	pipe := core.NewPipeline(w.Fleet, w.Catalog, core.Options{
		Mode:            qsm.ShareAll,
		Seed:            cfg.Seed,
		MemoryBudget:    cfg.MemoryBudget,
		RealTime:        cfg.RealTime,
		ChargeOptimizer: cfg.ChargeOptimizer,
	})

	// Ad hoc searches expand the way the workload's bundled suite was built
	// (w.Gen — path lengths, match fan-out); session config overrides the CQ
	// cap and, for non-default choices, the scoring family.
	genCfg := w.Gen
	genCfg.Graph = w.Schema
	genCfg.Catalog = w.Catalog
	genCfg.MaxCQs = cfg.MaxCQs
	switch cfg.Model {
	case ModelDISCOVER:
		genCfg.Family = candidates.FamilyDiscover
	case ModelBANKS:
		genCfg.Family = candidates.FamilyBANKS
	}
	return &System{genCfg: genCfg, pipe: pipe, expansions: candidates.NewCache(), users: map[string]*dist.RNG{}, cfg: cfg}
}

// Answer is one top-k result of a search.
type Answer struct {
	// Rank is the 1-based position in the result list.
	Rank int
	// Score is the answer's score under the user's scoring model.
	Score float64
	// Query identifies the conjunctive query (candidate network) that
	// produced the answer.
	Query string
	// Tuples are the joined base tuples, in the candidate network's atom
	// order.
	Tuples []*tuple.Tuple
	// At is the session time the answer was emitted.
	At time.Duration
}

// SearchResult is a completed search.
type SearchResult struct {
	// ID is the user query id assigned by the session (UQ1, UQ2, …).
	ID string
	// Keywords echo the search.
	Keywords []string
	// Answers are the top-k results in rank order.
	Answers []Answer
	// CandidateNetworks is how many conjunctive queries the search expanded
	// into; ExecutedNetworks how many the ATC actually activated (Table 4).
	CandidateNetworks int
	ExecutedNetworks  int
	// Latency is the (virtual or real) response time.
	Latency time.Duration
}

// Search poses a keyword query for the given user and blocks until its top-k
// answers are known. Each distinct user gets their own scoring-function
// coefficients (§2.1: "different users may have different scoring
// functions"). Earlier searches' plan state is reused automatically.
func (s *System) Search(user string, keywords []string, k int) (*SearchResult, error) {
	if k <= 0 {
		k = s.cfg.K
	}
	userRNG, ok := s.users[user]
	if !ok {
		userRNG = dist.New(s.cfg.Seed + 1000 + uint64(len(s.users))*77)
		s.users[user] = userRNG
	}
	s.nextUQ++
	id := fmt.Sprintf("UQ%d", s.nextUQ)
	sk := s.expansions.Skeleton(s.genCfg, keywords)
	uq, err := sk.Instantiate(id, keywords, k, sk.Draw(userRNG))
	if err != nil {
		return nil, err
	}
	return s.Submit(uq)
}

// Submit admits a pre-generated user query (advanced use: custom candidate
// networks or scoring models) and runs it to completion.
func (s *System) Submit(uq *cq.UQ) (*SearchResult, error) {
	arrival := s.pipe.Env.Clock.Now()
	_, err := s.pipe.Manager.Admit([]batcher.Submission{{At: arrival, UQ: uq}}, mqo.Config{K: uq.K})
	if err != nil {
		return nil, err
	}
	merge := s.pipe.ATC.MergeByUQ(uq.ID)
	if merge == nil {
		return nil, fmt.Errorf("qsys: submitted query %s not registered", uq.ID)
	}
	for !merge.Done {
		s.pipe.ATC.RunRound()
	}
	if merge.Err != nil {
		return nil, fmt.Errorf("qsys: query %s failed: %w", uq.ID, merge.Err)
	}
	s.pipe.Manager.SyncCatalog()
	res := &SearchResult{
		ID:                uq.ID,
		Keywords:          uq.Keywords,
		CandidateNetworks: len(uq.CQs),
		ExecutedNetworks:  merge.RM.ExecutedCQs(),
		Latency:           merge.Latency(),
	}
	for i, r := range merge.RM.Results() {
		res.Answers = append(res.Answers, Answer{
			Rank:   i + 1,
			Score:  r.Score,
			Query:  r.CQID,
			Tuples: r.Row.Parts(),
			At:     r.At,
		})
	}
	return res, nil
}

// Stats reports the session's accumulated execution counters and plan-graph
// shape.
func (s *System) Stats() SessionStats {
	return SessionStats{
		Work:        s.pipe.Env.Metrics.Snapshot(),
		Graph:       s.pipe.Graph.Stats(),
		StateRows:   s.pipe.Manager.StateSize(),
		Evictions:   s.pipe.Manager.Evictions(),
		PlanCache:   s.pipe.Manager.PlanCacheStats(),
		ExpandCache: s.expansions.Stats(),
		Now:         s.pipe.Env.Clock.Now(),
	}
}

// SessionStats summarises a session.
type SessionStats struct {
	Work      metrics.Snapshot
	Graph     plangraph.Stats
	StateRows int
	Evictions int
	// PlanCache counts the searches whose optimizer work was shared with an
	// earlier one (hits) against those that ran the plan search (misses).
	PlanCache qsm.PlanCacheStats
	// ExpandCache counts the searches whose candidate networks an earlier
	// search of the same keywords had already derived (hits) against those
	// that derived them (misses).
	ExpandCache candidates.CacheStats
	Now         time.Duration
}

// String renders the stats compactly.
func (st SessionStats) String() string {
	return fmt.Sprintf("t=%v stream=%d probes=%d (cached %d) results=%d | graph: %d sources, %d m-joins, %d splits | state=%d rows (%d evictions) | plan cache: %d hits, %d misses (%d stale), %d entries | expand cache: %d hits, %d misses (%d stale), %d entries",
		st.Now.Round(time.Millisecond), st.Work.StreamTuples, st.Work.ProbeCalls, st.Work.ProbeCacheHits,
		st.Work.ResultsEmitted, st.Graph.Sources, st.Graph.Joins, st.Graph.Splits, st.StateRows, st.Evictions,
		st.PlanCache.Hits, st.PlanCache.Misses, st.PlanCache.Stale, st.PlanCache.Entries,
		st.ExpandCache.Hits, st.ExpandCache.Misses, st.ExpandCache.Stale, st.ExpandCache.Entries)
}
