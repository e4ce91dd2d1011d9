// Package core assembles the paper's primary contribution — the shared,
// pipelined, reusable top-k query processor of §3–§6 — from its component
// packages, providing the one-call construction every engine builds upon:
// the served engine (internal/service); the qsys session, which drives one
// pipeline synchronously behind the served engine's front desk
// (service.Expander) with Admit and Drain; the §7 execution runner
// (internal/exec); and the engine differentials (core/coretest):
//
//	mqo        multi-query optimization: AND-OR memo, pruning heuristics,
//	           BestPlan (Algorithm 1)                              — §5.1
//	factorize  plan-graph factorization with splits and m-way joins — §5.2
//	plangraph  the query plan graph                                  — §4
//	operator   access modules, m-joins (STeM eddies), rank-merge     — §4.1
//	atc        the execution coordinator                             — §4.2
//	qsm        grafting, epochs, state recovery, eviction            — §6
//
// A Pipeline is one middleware execution thread: one plan graph, one ATC,
// one query state manager, one virtual clock. Everything a pipeline learns
// (stream positions, node output logs, probe caches, observed cardinalities)
// survives between Admit calls — that persistence is the paper's thesis.
package core

import (
	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/remotedb"
	"repro/internal/simclock"
)

// Pipeline is one continuously running Q System middleware thread.
type Pipeline struct {
	// Env carries the clock, delay model and work counters.
	Env *operator.Env
	// Graph is the live query plan graph.
	Graph *plangraph.Graph
	// ATC coordinates execution.
	ATC *atc.ATC
	// Manager owns optimization, grafting and state (§6).
	Manager *qsm.Manager
	// Catalog is the pipeline's private statistics fork.
	Catalog *catalog.Catalog
}

// Options configures a pipeline.
type Options struct {
	// Mode selects how much sharing the optimizer exploits (§7.1).
	Mode qsm.ShareMode
	// Seed drives the deterministic delay model.
	Seed uint64
	// MemoryBudget bounds retained state in rows (0 = unbounded, §6.3).
	MemoryBudget int
}

// NewPipeline wires a fresh middleware thread over the fleet. The catalog is
// forked: reuse accounting is pipeline-local (§6.1) while relation statistics
// stay shared.
func NewPipeline(fleet *remotedb.Fleet, cat *catalog.Catalog, opts Options) *Pipeline {
	env := &operator.Env{
		Clock:   simclock.NewVirtual(0),
		Delays:  simclock.DefaultDelays(dist.New(opts.Seed + 1)),
		Metrics: &metrics.Counters{},
	}
	graph := plangraph.New("")
	controller := atc.New(graph, env, fleet)
	fork := cat.Fork()
	mgr := qsm.New(graph, controller, fork, costmodel.New(fork, costmodel.DefaultParams()), opts.Mode)
	mgr.MemoryBudget = opts.MemoryBudget
	return &Pipeline{Env: env, Graph: graph, ATC: controller, Manager: mgr, Catalog: fork}
}

// Admit syncs the catalog, optimizes a batch of user queries against the
// pipeline's retained state and grafts them into the running plan graph (§6);
// a failed batch leaves no merge registered.
func (p *Pipeline) Admit(subs []batcher.Submission, opt mqo.Config) (*qsm.AdmitReport, error) {
	return p.Manager.Admit(subs, opt)
}

// Drain drives the ATC's rounds (§4.2) until every admitted query finishes,
// then feeds observed statistics back to the catalog.
func (p *Pipeline) Drain() {
	for p.ATC.RunRound() {
	}
	p.Manager.SyncCatalog()
}

// Snapshot reports accumulated work (Figure 8/10 counters).
func (p *Pipeline) Snapshot() metrics.Snapshot { return p.Env.Metrics.Snapshot() }
