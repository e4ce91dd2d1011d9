// Package service is the concurrent, multi-tenant serving layer of the Q
// System reproduction: the subsystem that turns the paper's batch-oriented
// engine into an online middleware handling simultaneously arriving keyword
// queries — the setting the paper's batched multi-query optimization (§3) and
// shared plan graph (§4–§6) are designed for.
//
// Architecture (one Service):
//
//	Search ──► cluster-affinity router ──► shard 0: admission queue ─► executor goroutine
//	                                   └─► shard 1: admission queue ─► executor goroutine
//	                                   └─► …                              │
//	           per-request response channel ◄─────────────────────────────┘
//
// Each shard owns one complete engine — plan graph, ATC, query state manager,
// catalog fork, clock and delay model — and a single executor goroutine that
// is the only goroutine ever touching that engine, so the single-threaded
// engine code needs no locks. Callers talk to shards exclusively through
// channels: Search enqueues a request and blocks on a per-request response
// channel (honouring context cancellation and deadlines); the executor
// collects requests into a time/size-windowed admission batch (§3's batcher,
// online form), admits released batches through qsm.Manager.Admit — grafting
// them into the already-running plan graph exactly as §6.2 grafts late
// arrivals — and drives atc.RunRound continuously, dispatching each completed
// rank-merge back to its waiting caller.
//
// Queries are routed to shards by measured overlap affinity: the router keeps
// one decaying resident keyword set per shard (cluster.Affinity) and places
// each canonical keyword set on the shard it overlaps most, falling back to a
// fixed hash when no shard has meaningful affinity — the serving-layer
// analogue of §6.1's query clustering (ATC-CL). Identical and overlapping
// searches land on the same plan graph and share work, while disjoint topics
// execute in parallel.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/candidates"
	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/recovery"
	"repro/internal/state"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// ErrClosed is returned by Search once the service has begun shutting down.
var ErrClosed = errors.New("service: closed")

// Config tunes a Service.
type Config struct {
	// K is the default number of answers per search (the paper uses 50).
	K int
	// Seed drives the deterministic delay and scoring-coefficient draws.
	Seed uint64
	// MaxCQs overrides the workload's cap on candidate networks per search
	// (0 keeps the workload's own setting; paper workloads use ≤20).
	MaxCQs int
	// MemoryBudget bounds retained middleware state in rows across the whole
	// service (0 = unbounded). The budget is global: a demand-proportional
	// arbiter apportions it to shards, so a hot shard holds more state than
	// an idle one instead of every shard owning an equal island. Exceeding a
	// shard's allotment triggers eviction under EvictPolicy (§6.3).
	MemoryBudget int
	// EvictPolicy selects the eviction policy: "lru" (default; the paper's
	// least-recently-used, largest-first) or "benefit" (evict the state
	// that is cheapest to re-derive per retained row, priced by the cost
	// model). New panics on an unknown name — validate user input first.
	EvictPolicy string
	// SpillDir, when set, turns discard eviction into spill eviction: each
	// shard serializes evicted plan segments to SpillDir/shard-<n> and
	// revival reads them back as local I/O instead of re-paying source
	// reads (§6.3 disk tier). The per-shard directories are removed on
	// Close. New panics if the directory cannot be created.
	SpillDir string

	// CheckpointDir enables the crash-recovery tier: each shard owns a
	// durable checkpoint store and admission journal under
	// CheckpointDir/shard-<eid>. Unlike SpillDir the directories survive
	// Close — durability across process death is the point. A Service built
	// over a directory holding a committed checkpoint stages it; Recover
	// imports it through the consistency gate (warm restart). New panics if
	// the directory cannot be created.
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence (0 disables the
	// loop; Checkpoint can still be called explicitly). Only meaningful with
	// CheckpointDir set.
	CheckpointInterval time.Duration
	// FleetMetrics, when non-nil, mirrors the recovery tier's counters
	// (checkpoints written/loaded, segments recovered/dropped) into the
	// fleet metrics a serving binary exports.
	FleetMetrics *metrics.Fleet

	// BatchSize releases an admission batch as soon as this many queries
	// collect (§7.1 uses 5). 0 means the default of 5; negative disables the
	// size trigger entirely.
	BatchSize int
	// BatchWindow releases an admission batch this long (wall time) after its
	// first member arrives. 0 admits every arrival immediately — the
	// SINGLE-OPT baseline of Figure 9.
	BatchWindow time.Duration

	// Shards is the number of independent engines (plan graph + executor
	// goroutine). Related searches share a graph while unrelated ones run in
	// parallel; Router selects how queries are placed. Default 1. Shards is
	// how a service uses more than one core: each engine is single-threaded.
	Shards int
	// Workers is ignored: every shard runs one serial engine.
	//
	// Deprecated: the intra-shard component executor it sized ran no faster
	// than the serial engine; use Shards for cores.
	Workers int
	// Router selects shard placement: "affinity" (default) routes each query
	// to the shard whose decaying resident keyword set it overlaps most —
	// §6.1's cluster-affinity idea at serving scale, with a fixed-hash
	// fallback when no shard has meaningful affinity — while "hash" always
	// uses the hash of the canonical keyword set. New panics on an unknown
	// name — validate user input with ParseRouter first.
	Router string
	// MaxQueue bounds each shard's submission queue; senders beyond it block
	// (closed-loop backpressure) until the executor drains or their context
	// expires. Default 1024.
	MaxQueue int
	// ShardIDOffset offsets the engine identity of this service's shards:
	// shard i seeds its RNGs (engine, delays) as engine
	// ShardIDOffset+i. A shard *process* serving slot i of a distributed
	// fleet runs Shards=1 with ShardIDOffset=i, which makes its engine
	// byte-identical to shard i of a single-process service with the same
	// Seed — the invariant the multi-process digest parity gate pins.
	ShardIDOffset int

	// RealTime makes engine delays actually sleep (live serving); the default
	// virtual clock simulates them, which is what the load generator and the
	// tests use.
	RealTime bool

	// Admission configures the overload-control layer (PR7): per-user
	// token-bucket rate limits with fair arbitration, bounded-queue shedding
	// (MaxPending), per-request latency budgets (Deadline) that cancel
	// merges past them, and the adaptive admission window that replaces the
	// fixed BatchWindow with a control loop. The zero value keeps the
	// closed-loop behavior: senders block on the shard queue, nothing sheds.
	Admission admission.Config

	// JointOptimize runs one multi-query optimization over each whole
	// admission batch (§5.1's BATCH-OPT) instead of the default per-query
	// optimization into the shared graph. Joint search cost grows steeply
	// with batch size (Figure 11); under the bounded search budget large
	// groups lose pushdown selectivity, so the default shares structurally
	// via the plan graph (§6.2) and optimizes per query.
	JointOptimize bool
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 50
	}
	if c.BatchSize == 0 {
		c.BatchSize = 5
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	c.Admission = c.Admission.Normalized()
	return c
}

// Answer is one ranked search result.
type Answer struct {
	Rank  int
	Score float64
	// Query identifies the conjunctive query (candidate network) that
	// produced the answer.
	Query string
	// Tuples are the joined base tuples in the candidate network's atom order.
	Tuples []*tuple.Tuple
}

// Result is a completed search.
type Result struct {
	// ID is the user-query id assigned by the service (UQ1, UQ2, …).
	ID string
	// Keywords echo the search.
	Keywords []string
	// Answers are the top-k results in rank order.
	Answers []Answer
	// CandidateNetworks is how many conjunctive queries the search expanded
	// into; ExecutedNetworks how many the ATC actually activated.
	CandidateNetworks int
	ExecutedNetworks  int
	// Shard is the engine the query executed on; BatchSize how many queries
	// rode in its admission batch.
	Shard     int
	BatchSize int
	// EngineLatency is the engine clock's admission-to-finish time (the
	// paper's response-time notion); WallLatency is enqueue-to-response wall
	// time including the admission wait.
	EngineLatency time.Duration
	WallLatency   time.Duration
}

// Stats reports a service's accumulated serving and execution state.
type Stats struct {
	// Service holds the request-lifecycle counters, batch occupancy and
	// latency distributions.
	Service metrics.ServiceSnapshot
	// Work sums execution counters across shards. Work.ReplayTuples over
	// Work.TuplesConsumed+ReplayTuples is the shared-work fraction: rows that
	// were served from retained state instead of being re-fetched.
	Work metrics.Snapshot
	// Router reports the shard-placement decisions and each shard's decaying
	// resident keyword set.
	Router RouterStats
	// ExpandCache reports the front desk's expansion work shared across
	// arrivals: searches whose candidate networks were found already derived
	// (Hits) or were derived (Misses, of which Stale found an entry a schema
	// graph mutation had outdated), and the cache size.
	ExpandCache candidates.CacheStats
	// Shared splits every row the engines processed by where it came from:
	// retained memory state, the spill tier on disk, or a fresh source read.
	Shared SharedSplit
	// Shards holds per-engine detail.
	Shards []ShardStats
	// Recovery reports the crash-recovery tier (zero when disabled):
	// checkpoint generation, checkpoints written/loaded, segments
	// recovered/dropped, journaled-abort count.
	Recovery recovery.StatsSnapshot
}

// ShardStats describes one shard's engine.
type ShardStats struct {
	Shard int
	Work  metrics.Snapshot
	Graph plangraph.Stats
	// StateRows is the shard's resident state from the running ledger;
	// StateRowsAudit recomputes it by rescanning the graph. The two must
	// agree — a drift means accounting corruption.
	StateRows      int
	StateRowsAudit int
	// ScratchRows is the shard's pooled executor scratch (free-listed part
	// vectors held between mini-batch flushes) from the ledger's separate
	// scratch dimension; ScratchRowsAudit recomputes it by rescanning. It is
	// reported beside StateRows, never inside it, so pool warmth cannot sway
	// eviction victim choice.
	ScratchRows      int
	ScratchRowsAudit int
	// Batch is the executor's batch-occupancy distribution: rows per flushed
	// mini-batch, with full-vs-output flush counts in the Work snapshot
	// (BatchFullFlushes / BatchFlushes).
	Batch metrics.SizeStats
	// Budget is the shard's current arbitrated allotment (0 = unbounded).
	Budget    int
	Evictions int
	// EvictionsByPolicy splits evictions by the policy that chose them.
	EvictionsByPolicy map[string]int
	// Spill reports the shard's disk-tier traffic (zero when disabled).
	Spill state.SpillStats
	// PlanCache reports the optimizer work shared across admissions: groups
	// served from a cached plan (Hits) or searched (Misses, of which Stale
	// found an entry the catalog feedback had outdated), and the cache size.
	PlanCache qsm.PlanCacheStats
	// Now is the shard's engine-clock time.
	Now time.Duration
}

// SharedSplit classifies processed rows by provenance: replayed from
// retained memory state, restored from spilled segments on disk, or fetched
// fresh from the remote sources. Fractions sum to 1 when any row flowed.
type SharedSplit struct {
	MemoryHit float64 `json:"memory_hit"`
	DiskHit   float64 `json:"disk_hit"`
	FreshRead float64 `json:"fresh_read"`
}

// SharedFraction is the portion of all rows the engines processed that came
// from retained state (memory or disk) rather than fresh source work.
func (st Stats) SharedFraction() float64 {
	sp := st.SharedSplit()
	return sp.MemoryHit + sp.DiskHit
}

// SharedSplit computes the provenance split from the work counters.
func (st Stats) SharedSplit() SharedSplit {
	mem := float64(st.Work.ReplayTuples)
	disk := float64(st.Work.SpillRowsRead)
	fresh := float64(st.Work.TuplesConsumed())
	total := mem + disk + fresh
	if total == 0 {
		return SharedSplit{}
	}
	return SharedSplit{MemoryHit: mem / total, DiskHit: disk / total, FreshRead: fresh / total}
}

// Service is a concurrent keyword-search service over a workload's database
// fleet. Create with New, serve with Search from any number of goroutines,
// stop with Close.
type Service struct {
	cfg    Config
	svc    *metrics.Service
	exp    *Expander
	adm    *admission.Controller // nil unless rate limits are configured
	shards []*shard
	router *router

	// cpStop/cpDone bracket the periodic checkpoint loop (nil when no
	// CheckpointInterval is configured).
	cpStop chan struct{}
	cpDone chan struct{}

	mu     sync.Mutex
	closed bool
}

// New builds a service over a workload and starts its shard executors.
func New(w *workload.Workload, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg: cfg,
		svc: &metrics.Service{},
		exp: NewExpander(w, cfg),
		adm: admission.NewController(cfg.Admission),
	}
	mode, err := ParseRouter(cfg.Router)
	if err != nil {
		panic(err.Error())
	}
	s.router = newRouter(mode, cfg.Shards, s.svc)
	// One global budget, arbitrated across shards by demand (§6.3 at serving
	// scale). A nil arbiter means unbounded everywhere.
	var arb *state.Arbiter
	if cfg.MemoryBudget > 0 {
		arb = state.NewArbiter(cfg.MemoryBudget, cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, w, cfg, s.svc, arb))
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointInterval > 0 {
		s.cpStop = make(chan struct{})
		s.cpDone = make(chan struct{})
		go s.checkpointLoop(cfg.CheckpointInterval)
	}
	return s
}

// Search poses a keyword query for the given user and blocks until its top-k
// answers are known, the context is done, or the service closes. It is safe
// to call from many goroutines; concurrently arriving searches are batched
// into shared admissions. Each distinct user keeps their own scoring-function
// coefficients across calls (§2.1). k <= 0 uses the configured default.
//
// Under a configured admission rate the user's token bucket is consulted
// before any expansion work is spent; a shed returns *admission.ShedError
// (retryable — the query never reached admission) with a Retry-After hint.
func (s *Service) Search(ctx context.Context, user string, keywords []string, k int) (*Result, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	if shed := s.adm.Admit(user, time.Now()); shed != nil {
		s.svc.Shed.Inc()
		s.svc.ShedUserRate.Inc()
		return nil, shed
	}
	uq, err := s.exp.Expand(user, keywords, k)
	if err != nil {
		return nil, err
	}
	return s.SearchUQ(ctx, uq)
}

// SearchUQ admits an already-expanded user query, bypassing candidate
// generation. The distributed serving tier depends on it: the front-end owns
// expansion — per-user scoring coefficients and UQ ids are front-desk state —
// and ships the complete UQ to a shard process, whose engine must consume
// exactly the query the single-process engine would have, or result digests
// diverge.
func (s *Service) SearchUQ(ctx context.Context, uq *cq.UQ) (*Result, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.svc.Requests.Inc()
	sh := s.shards[s.route(uq.Keywords)]
	// Bounded-queue shed: when MaxPending is configured, an arrival that
	// finds the shard's admission queue full is turned away immediately
	// (retryable — it never reached admission) instead of blocking its
	// caller into the closed loop.
	if maxp := s.cfg.Admission.MaxPending; maxp > 0 {
		if int(sh.depth.Load())+len(sh.submitCh) >= maxp {
			s.svc.Shed.Inc()
			s.svc.ShedQueueFull.Inc()
			return nil, &admission.ShedError{
				Reason:     admission.ReasonQueueFull,
				RetryAfter: s.cfg.Admission.RetryAfter,
			}
		}
	}
	r := &request{uq: uq, enqueued: time.Now(), ctx: ctx, resp: make(chan response, 1)}
	if d := s.cfg.Admission.Deadline; d > 0 {
		r.deadline = r.enqueued.Add(d)
	}
	select {
	case sh.submitCh <- r:
		s.svc.InFlight.Inc()
	case <-sh.stopCh:
		s.svc.Rejected.Inc()
		return nil, ErrClosed
	case <-ctx.Done():
		s.svc.Canceled.Inc()
		return nil, ctx.Err()
	}
	select {
	case resp := <-r.resp:
		return resp.res, resp.err
	case <-ctx.Done():
		// The executor notices the dead context, unlinks the query's plan
		// segments and settles the (buffered) response channel.
		return nil, ctx.Err()
	case <-sh.doneCh:
		// Shutdown race: the send can win its select against a concurrent
		// Close after the executor already drained and exited, stranding the
		// request in the buffer. The executor settles everything it saw
		// before exiting, so check once more, then give up.
		select {
		case resp := <-r.resp:
			return resp.res, resp.err
		default:
			s.svc.InFlight.Dec()
			s.svc.Rejected.Inc()
			return nil, ErrClosed
		}
	}
}

// AbortInFlight settles every queued and admitted search on every shard with
// reason, canceling their merges and unlinking their plan segments. It is
// the drain deadline's escape hatch: a merge that never converges (or a
// backlog that outlives the drain budget) must not block the state handoff
// forever. Returns how many requests were aborted.
func (s *Service) AbortInFlight(reason error) int {
	n := 0
	for _, sh := range s.shards {
		sh.exec(func() { n += sh.abort(reason) })
	}
	return n
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// route picks the shard for a keyword set. The set is canonicalized first —
// folded, trimmed, empties dropped, deduplicated — so surface variants of
// one search can never land on different shards and silently re-pay remote
// source reads; the configured router (affinity by default, fixed hash
// otherwise) then places the canonical set.
func (s *Service) route(keywords []string) int {
	if len(s.shards) == 1 {
		return 0
	}
	sh, _ := s.router.route(CanonicalKeywords(keywords), nil)
	return sh
}

// Stats snapshots the service. Engine-side numbers are fetched through each
// shard's executor so no lock is needed on the single-threaded engine state.
func (s *Service) Stats() Stats {
	st := Stats{Service: s.svc.Snapshot(), Router: s.router.stats(), ExpandCache: s.exp.CacheStats()}
	for _, sh := range s.shards {
		ss := sh.stats()
		st.Shards = append(st.Shards, ss)
		st.Work = st.Work.Add(ss.Work)
	}
	st.Shared = st.SharedSplit()
	st.Recovery = s.RecoveryStats()
	return st
}

// Close stops accepting new searches, lets every enqueued and in-flight query
// run to completion, and shuts the shard executors down. It is idempotent and
// returns the joined per-shard state-teardown errors (spill directories that
// failed to remove, …) — previously swallowed, now surfaced so a serving
// process can log disk problems instead of silently leaking segments.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Stop the checkpoint loop before the executors: a checkpoint capture
	// needs a live executor goroutine to run its exec closure on.
	if s.cpStop != nil {
		close(s.cpStop)
		<-s.cpDone
	}
	for _, sh := range s.shards {
		close(sh.stopCh)
	}
	var errs []error
	for _, sh := range s.shards {
		<-sh.doneCh
		// The executor has exited; reclaim the shard's spill segments so no
		// run leaves disk state behind. The checkpoint directory, unlike the
		// spill tier, is deliberately NOT removed — it must outlive the
		// process.
		if err := sh.mgr.State.Close(); err != nil {
			errs = append(errs, fmt.Errorf("service: shard %d state teardown: %w", sh.id, err))
		}
		if err := sh.jnl.Close(); err != nil {
			errs = append(errs, fmt.Errorf("service: shard %d journal close: %w", sh.id, err))
		}
	}
	return errors.Join(errs...)
}
