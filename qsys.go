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
//     searches left behind. A session expands each search through the
//     served engine's front desk (service.Expander) and runs it on one
//     pipeline, so it gives the answers a one-engine qsys-serve gives. See
//     examples/quickstart.
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
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/tuple"
)

// Config configures a System session. Each field means what the field of
// the same name in the served engine's configuration (service.Config) means.
type Config struct {
	// K is the default number of answers per search (the paper uses 50).
	K int
	// Seed drives the deterministic delay model and the users' scoring
	// coefficients.
	Seed uint64
	// MemoryBudget bounds retained middleware state in rows (0 = unbounded);
	// exceeding it triggers LRU eviction (§6.3).
	MemoryBudget int
}

// System is an interactive Q System session over a database fleet: a single
// shared plan graph whose operators and state persist across searches, like
// the paper's continuously running middleware. Searches expand through the
// served engine's front desk (service.Expander) and run one at a time to
// completion, so a session answers a user's search exactly as a one-engine
// qsys-serve over the same workload and seed does.
//
// A session is driven by one goroutine at a time: its engine state (clock,
// counters, ledger, catalog fork) is plain and unsynchronised. Concurrent
// callers use a served engine instead — fleet.NewLocal in process, or
// qsys-serve.
type System struct {
	exp  *service.Expander
	pipe *core.Pipeline
}

// NewSystem opens a session over a workload's fleet, catalog and schema
// graph. Most callers obtain those from one of the bundled workloads (Bio,
// GUS, Pfam) or by building databases with NewDatabase. Searches expand the
// way the workload's bundled suite was built (w.Gen: path lengths, match
// fan-out, scoring family, candidate-network cap).
func NewSystem(w *Workload, cfg Config) *System {
	return &System{
		exp: service.NewExpander(w, service.Config{K: cfg.K, Seed: cfg.Seed}),
		pipe: core.NewPipeline(w.Fleet, w.Catalog, core.Options{
			Mode:         qsm.ShareAll,
			Seed:         cfg.Seed,
			MemoryBudget: cfg.MemoryBudget,
		}),
	}
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
	// Latency is the response time on the engine's virtual clock.
	Latency time.Duration
}

// Search poses a keyword query for the given user and blocks until its top-k
// answers are known; k <= 0 uses Config.K. Each distinct user gets their own
// scoring-function coefficients (§2.1: "different users may have different
// scoring functions"). Earlier searches' plan state is reused automatically.
func (s *System) Search(user string, keywords []string, k int) (*SearchResult, error) {
	uq, err := s.exp.Expand(user, keywords, k)
	if err != nil {
		return nil, err
	}
	return s.Submit(uq)
}

// Submit admits a pre-generated user query (advanced use: custom candidate
// networks or scoring models) and runs it to completion. The session keeps
// the plan state the query leaves behind, not the query itself.
func (s *System) Submit(uq *cq.UQ) (*SearchResult, error) {
	p := s.pipe
	if _, err := p.Admit([]batcher.Submission{{At: p.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		return nil, err
	}
	merge := p.ATC.MergeByUQ(uq.ID)
	p.Drain()
	p.ATC.Forget(uq.ID)
	if merge.Err != nil {
		return nil, fmt.Errorf("qsys: query %s failed: %w", uq.ID, merge.Err)
	}
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
		ExpandCache: s.exp.CacheStats(),
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
	return fmt.Sprintf("t=%v stream=%d probes=%d (cached %d) results=%d | graph: %d sources, %d m-joins, %d splits | state=%d rows (%d evictions) | plan cache: %d hits (%d re-priced), %d misses (%d stale), %d entries | expand cache: %d hits, %d misses (%d stale), %d entries",
		st.Now.Round(time.Millisecond), st.Work.StreamTuples, st.Work.ProbeCalls, st.Work.ProbeCacheHits,
		st.Work.ResultsEmitted, st.Graph.Sources, st.Graph.Joins, st.Graph.Splits, st.StateRows, st.Evictions,
		st.PlanCache.Hits, st.PlanCache.Rechecked, st.PlanCache.Misses, st.PlanCache.Stale, st.PlanCache.Entries,
		st.ExpandCache.Hits, st.ExpandCache.Misses, st.ExpandCache.Stale, st.ExpandCache.Entries)
}
