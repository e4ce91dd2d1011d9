// Package service is one engine of the Q System reproduction's serving
// layer: the subsystem that turns the paper's batch-oriented engine into an
// online middleware admitting simultaneously arriving keyword queries — the
// setting the paper's batched multi-query optimization (§3) and shared plan
// graph (§4–§6) are designed for.
//
// Architecture (one Service):
//
//	SearchUQ ──► admission queue ──► executor goroutine: plan graph, ATC, qsm
//	    ▲                                     │
//	    └───── per-request response channel ◄─┘
//
// A Service owns one complete engine — plan graph, ATC, query state manager,
// catalog fork, clock and delay model — and a single executor goroutine that
// is the only goroutine ever touching it, so the single-threaded engine code
// needs no locks. Callers talk to it exclusively through channels: SearchUQ
// enqueues an expanded user query and blocks on a per-request response
// channel (honouring context cancellation and deadlines); the executor
// collects requests into a time/size-windowed admission batch (§3's batcher,
// online form), admits released batches through qsm.Manager.Admit — grafting
// them into the already-running plan graph exactly as §6.2 grafts late
// arrivals — and drives atc.RunRound continuously, dispatching each completed
// rank-merge back to its waiting caller.
//
// The front desk is not part of the engine. An Expander turns (user,
// keywords, k) into the expanded query, and a Placer puts each canonical
// keyword set on the engine whose decaying resident keyword set it overlaps
// most, falling back to a fixed hash — the serving-layer analogue of §6.1's
// query clustering (ATC-CL). internal/fleet composes them: one Frontend over
// N engines, in this process (fleet.NewLocal) or in shard processes.
package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/atc"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/recovery"
	"repro/internal/state"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// ErrClosed is returned by SearchUQ once the service has begun shutting down.
var ErrClosed = errors.New("service: closed")

// maxQueue bounds the submission queue; senders beyond it block (closed-loop
// backpressure) until the executor drains or their context expires.
const maxQueue = 1024

// Config tunes a Service.
type Config struct {
	// K is the default number of answers per search (the paper uses 50).
	K int
	// Seed drives the deterministic delay and scoring-coefficient draws.
	Seed uint64
	// MemoryBudget bounds the engine's retained middleware state in rows
	// (0 = unbounded). Exceeding it evicts idle state, least recently used
	// first (§6.3). It is per engine: N engines hold up to N budgets.
	MemoryBudget int
	// SpillDir, when set, turns discard eviction into spill eviction: the
	// engine serializes evicted plan segments to SpillDir/shard-<id> (id =
	// ShardIDOffset) and revival reads them back as local I/O instead of
	// re-paying source reads (§6.3 disk tier). The directory is removed on
	// Close. New panics if the directory cannot be created.
	SpillDir string

	// CheckpointDir enables the crash-recovery tier: the engine owns a
	// durable checkpoint store and admission journal under
	// CheckpointDir/shard-<id>. Unlike SpillDir the directory survives
	// Close — durability across process death is the point. New imports a
	// committed checkpoint found there through the consistency gate before
	// the executor starts (warm restart), and panics if the directory
	// cannot be created.
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence (0 disables the
	// loop; Checkpoint can still be called explicitly). Only meaningful with
	// CheckpointDir set.
	CheckpointInterval time.Duration

	// BatchSize releases an admission batch as soon as this many queries
	// collect (§7.1 uses 5). 0 means the default of 5; negative disables the
	// size trigger entirely.
	BatchSize int
	// BatchWindow releases an admission batch this long (wall time) after its
	// first member arrives. 0 admits every arrival immediately — the
	// SINGLE-OPT baseline of Figure 9.
	BatchWindow time.Duration

	// Shards is the number of engines fleet.NewLocal builds behind one front
	// desk, each a Service of its own. Related searches share a graph while
	// unrelated ones run in parallel; Router selects how queries are placed.
	// Default 1. Shards is how a process uses more than one core: each
	// engine is single-threaded. New builds exactly one engine and panics on
	// Shards > 1.
	Shards int
	// Workers is ignored: every engine is serial.
	//
	// Deprecated: the intra-shard component executor it sized ran no faster
	// than the serial engine; use Shards for cores.
	Workers int
	// Router selects the front desk's placement (see Placer): "affinity"
	// (default) routes each query to the engine whose decaying resident
	// keyword set it overlaps most — §6.1's cluster-affinity idea at serving
	// scale, with a fixed-hash fallback when no engine has meaningful
	// affinity — while "hash" always uses the hash of the canonical keyword
	// set. A lone engine ignores it.
	Router string
	// ShardIDOffset is the engine's identity: it salts the engine's RNGs
	// (engine, delays) and names its spill and checkpoint directories.
	// fleet.NewLocal gives engine i the offset i, and a shard process serving
	// slot i of a distributed fleet runs with the same offset, so slot i is
	// the same engine over the same seed in one process or in N.
	ShardIDOffset int

	// Admission configures the overload-control layer: bounded-queue
	// shedding (MaxPending), per-request latency budgets (Deadline) that
	// cancel merges past them and the in-flight bound (MaxInFlight), all
	// inside the engine; the per-user token-bucket rate limits (UserRate,
	// TotalRate) run at the front desk (fleet.Frontend). The zero value
	// keeps the closed-loop behavior: senders block on the queue, nothing
	// sheds.
	Admission admission.Config
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
	// Shard is the engine the query executed on (0 from a lone Service; the
	// front desk that placed it fills the view's); BatchSize how many
	// queries rode in its admission batch.
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
	// Work sums execution counters across engines; SharedSplit derives from
	// it the share of rows served from retained state instead of being
	// re-fetched.
	Work metrics.Snapshot
	// Router reports the front desk's placement decisions and each engine's
	// decaying resident keyword set (zero for a lone engine).
	Router RouterStats
	// ExpandCache reports the front desk's expansion work shared across
	// arrivals: searches whose candidate networks were found already derived
	// (Hits) or were derived (Misses, of which Stale found an entry a schema
	// graph mutation had outdated), and the cache size. Zero for a lone
	// engine: engines never expand.
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
	// Fleet reports the front desk's shard RPC traffic: calls, retries,
	// breaker and probe outcomes, and the bytes of the /rpc/search frames.
	// Only a front desk sets it; its RPC counters are zero in process.
	Fleet *metrics.FleetSnapshot `json:",omitempty"`
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
	// vectors held between join arrivals) from the ledger's separate
	// scratch dimension; ScratchRowsAudit recomputes it by rescanning. It is
	// reported beside StateRows, never inside it, so pool warmth cannot sway
	// eviction victim choice.
	ScratchRows      int
	ScratchRowsAudit int
	// Budget is the engine's MemoryBudget (0 = unbounded).
	Budget    int
	Evictions int
	// Spill reports the shard's disk-tier traffic (zero when disabled).
	Spill state.SpillStats
	// PlanCache reports the optimizer work shared across admissions: groups
	// served from a cached plan (Hits, of which Rechecked re-priced it under
	// moved row counts) or searched (Misses, of which Stale found an entry
	// the catalog feedback had outdated), and the cache size.
	PlanCache qsm.PlanCacheStats
	// Now is the shard's engine-clock time.
	Now time.Duration
}

// SharedSplit classifies processed rows by provenance: shared from retained
// memory state (rows revives replayed plus pre-epoch log rows grafts seeded
// their endpoints with), restored from spilled segments on disk, or fetched
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
	mem := float64(st.Work.ReplayTuples + st.Work.SeededRows)
	disk := float64(st.Work.SpillRowsRead)
	fresh := float64(st.Work.TuplesConsumed())
	total := mem + disk + fresh
	if total == 0 {
		return SharedSplit{}
	}
	return SharedSplit{MemoryHit: mem / total, DiskHit: disk / total, FreshRead: fresh / total}
}

// Service is one concurrent keyword-search engine over a workload's database
// fleet. Create with New, serve expanded queries with SearchUQ from any
// number of goroutines, stop with Close. Nothing outside the executor
// goroutine ever touches the engine fields after New returns.
type Service struct {
	cfg Config
	svc *metrics.Service

	env  *operator.Env
	ctrl *atc.ATC
	mgr  *qsm.Manager

	// pending is the current admission window in arrival order; windowStart
	// is the wall arrival of pending[0]; waiters holds admitted, unfinished
	// requests by UQ id. All three are executor-goroutine state (promoted to
	// fields so drain/abort control closures can reach them).
	pending     []*request
	windowStart time.Time
	waiters     map[string]*request

	// depth mirrors the admission-queue occupancy (accepted but not yet
	// admitted) for the queue-full shed check, which runs on caller
	// goroutines and therefore cannot read pending directly.
	depth atomic.Int64

	// mergeEWMA tracks recent admission-to-completion time (EWMA/4), the
	// executor's estimate of what starting one more merge costs. Deadline
	// shedding uses it to drop queued requests that could no longer finish
	// in budget — canceling a doomed merge mid-flight refunds nothing, so
	// the cheap place to shed is before the engine ever sees it. Executor
	// goroutine only.
	mergeEWMA time.Duration

	submitCh chan *request
	// ctrlCh delivers closures (stats snapshots, checkpoint captures,
	// in-flight aborts) into the executor goroutine; every select that serves
	// submitCh serves it too, so control work interleaves between scheduling
	// rounds and never races the engine.
	ctrlCh chan func()
	stopCh chan struct{}
	doneCh chan struct{}

	// Crash-recovery tier (nil/empty unless Config.CheckpointDir is set).
	// store owns the engine's checkpoint directory; cpMu serializes its Write
	// against the periodic loop. jnl is the admission journal, confined to
	// the executor goroutine (Admit/Done in admit/respond, Rewrite inside
	// the checkpoint exec closure). recovered is the journal's replayed
	// in-flight set, static after New.
	store     *recovery.Store
	cpMu      sync.Mutex
	jnl       *recovery.Journal
	recovered []recovery.QueryRecord
	rec       recStats

	// cpStop/cpDone bracket the periodic checkpoint loop (nil when no
	// CheckpointInterval is configured).
	cpStop chan struct{}
	cpDone chan struct{}

	// expander serves Instantiate. Its expansion cache stays empty until
	// the first call: an engine whose front desk shares its process is
	// handed expanded queries and never fills it.
	expander *Expander

	mu     sync.Mutex
	closed bool
}

// New builds an engine over a workload and starts its executor. It panics
// on Shards > 1 (fleet.NewLocal builds several engines behind one front
// desk) and on a directory it cannot create.
func New(w *workload.Workload, cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Shards > 1 {
		panic(fmt.Sprintf("service: New builds one engine, not Shards = %d (use fleet.NewLocal)", cfg.Shards))
	}
	id := cfg.ShardIDOffset
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{
		Mode: qsm.ShareAll,
		// The seed salt keeps every engine of a fleet seeded differently.
		Seed:         cfg.Seed + uint64(id)*7919,
		MemoryBudget: cfg.MemoryBudget,
	})
	s := &Service{
		cfg:      cfg,
		expander: NewExpander(w, cfg),
		svc:      &metrics.Service{},
		env:      p.Env,
		ctrl:     p.ATC,
		mgr:      p.Manager,
		waiters:  map[string]*request{},
		submitCh: make(chan *request, maxQueue),
		ctrlCh:   make(chan func()),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	if cfg.SpillDir != "" {
		dir := filepath.Join(cfg.SpillDir, fmt.Sprintf("shard-%d", id))
		if err := s.mgr.EnableSpill(dir, s.mgr.DefaultResolver()); err != nil {
			panic("service: " + err.Error())
		}
	}
	// Each user query is optimized on its own; sharing between them arises
	// in the plan graph (DESIGN.md "Optimization unit").
	s.mgr.Unit = qsm.UnitUQ
	if cfg.CheckpointDir != "" {
		s.openRecovery(filepath.Join(cfg.CheckpointDir, fmt.Sprintf("shard-%d", id)))
	}
	go s.run()
	if cfg.CheckpointDir != "" && cfg.CheckpointInterval > 0 {
		s.cpStop = make(chan struct{})
		s.cpDone = make(chan struct{})
		go s.checkpointLoop(cfg.CheckpointInterval)
	}
	return s
}

// Instantiate rebuilds a query a front desk expanded in another process
// from what the search frame carries: its id, keywords, k and the user's
// generator state before the draw (cq.UQ.DrawState). The query comes from
// this engine's own expansion cache, so its bodies share their canonical
// forms with every earlier arrival of the keyword set. It equals the front
// desk's query exactly when both run the same workload, catalog, graph
// generation and generation config; the caller compares Digests.
func (s *Service) Instantiate(id string, keywords []string, k int, draw uint64) (*cq.UQ, error) {
	return s.expander.Instantiate(id, keywords, k, draw)
}

// SearchUQ admits an expanded user query and blocks until its top-k answers
// are known, the context is done, or the service closes. It is safe to call
// from many goroutines; concurrently arriving queries are batched into
// shared admissions. The front desk owns expansion — per-user scoring
// coefficients and UQ ids depend on the whole request stream — so an engine
// runs exactly the query it is given: the front desk's own in this process,
// or the one Instantiate rebuilt from its draw state in a shard process.
func (s *Service) SearchUQ(ctx context.Context, uq *cq.UQ) (*Result, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.svc.Requests.Inc()
	// Bounded-queue shed: when MaxPending is configured, an arrival that
	// finds the admission queue full is turned away immediately (retryable —
	// it never reached admission) instead of blocking its caller into the
	// closed loop.
	if maxp := s.cfg.Admission.MaxPending; maxp > 0 {
		if int(s.depth.Load())+len(s.submitCh) >= maxp {
			s.svc.Shed.Inc()
			s.svc.ShedQueueFull.Inc()
			return nil, &admission.ShedError{
				Reason:     admission.ReasonQueueFull,
				RetryAfter: admission.RetryAfter,
			}
		}
	}
	r := &request{uq: uq, enqueued: time.Now(), ctx: ctx, resp: make(chan response, 1)}
	if d := s.cfg.Admission.Deadline; d > 0 {
		r.deadline = r.enqueued.Add(d)
	}
	select {
	case s.submitCh <- r:
		s.svc.InFlight.Inc()
	case <-s.stopCh:
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
	case <-s.doneCh:
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

// InFlight reports how many searches the engine has accepted and not yet
// answered. Cheap (one atomic read) — health probes poll it.
func (s *Service) InFlight() int { return int(s.svc.InFlight.Value()) }

// AbortInFlight settles every queued and admitted search with reason,
// canceling their merges and unlinking their plan segments. It is the drain
// deadline's escape hatch: a merge that never converges (or a backlog that
// outlives the drain budget) must not block shutdown forever.
// Returns how many requests were aborted.
func (s *Service) AbortInFlight(reason error) int {
	n := 0
	s.exec(func() { n = s.abort(reason) })
	return n
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Stats snapshots the service. Engine-side numbers are fetched through the
// executor so no lock is needed on the single-threaded engine state.
func (s *Service) Stats() Stats {
	var ss ShardStats
	s.exec(func() { ss = s.snapshot() })
	st := Stats{Service: s.svc.Snapshot(), Work: ss.Work, Shards: []ShardStats{ss}, Recovery: s.RecoveryStats()}
	st.Shared = st.SharedSplit()
	return st
}

// Close stops accepting new searches, lets every enqueued and in-flight query
// run to completion, and shuts the executor down. It is idempotent and
// returns the state-teardown errors (a spill directory that failed to
// remove, …) so a serving process can log disk problems instead of silently
// leaking segments.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Stop the checkpoint loop before the executor: a checkpoint capture
	// needs a live executor goroutine to run its exec closure on.
	if s.cpStop != nil {
		close(s.cpStop)
		<-s.cpDone
	}
	close(s.stopCh)
	<-s.doneCh
	// The executor has exited; reclaim the spill segments so no run leaves
	// disk state behind. The checkpoint directory, unlike the spill tier, is
	// deliberately NOT removed — it must outlive the process.
	var errs []error
	if err := s.mgr.State.Close(); err != nil {
		errs = append(errs, fmt.Errorf("service: engine %d state teardown: %w", s.cfg.ShardIDOffset, err))
	}
	if err := s.jnl.Close(); err != nil {
		errs = append(errs, fmt.Errorf("service: engine %d journal close: %w", s.cfg.ShardIDOffset, err))
	}
	return errors.Join(errs...)
}
