package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/qsm"
	"repro/internal/recovery"
	"repro/internal/state"
	"repro/internal/workload"
)

// request is one enqueued search.
type request struct {
	uq        *cq.UQ
	enqueued  time.Time
	deadline  time.Time // zero = no latency budget
	admitted  time.Time // set at admission; feeds the merge-time estimate
	journaled bool      // an admit record exists; settlement must close it
	ctx       context.Context
	resp      chan response
	batchSize int // set at admission
}

// expired reports whether the request's latency budget has run out.
func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && now.After(r.deadline)
}

type response struct {
	res *Result
	err error
}

// shard is one complete engine — plan graph, ATC, state manager, catalog
// fork, clock — plus the single executor goroutine that owns it. Nothing
// outside the executor goroutine ever touches the engine fields after
// newShard returns.
type shard struct {
	id  int
	cfg Config
	svc *metrics.Service
	arb *state.Arbiter

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

	// depth mirrors the shard's admission-queue occupancy (accepted but not
	// yet admitted) for the queue-full shed check, which runs on caller
	// goroutines and therefore cannot read pending directly.
	depth atomic.Int64

	// win, when non-nil, replaces the fixed BatchWindow with the adaptive
	// admission window control loop. Only the executor goroutine reads it
	// during scheduling; its own mutex makes the Observe calls safe.
	win *admission.WindowController

	// mergeEWMA tracks recent admission-to-completion time (EWMA/4), the
	// executor's estimate of what starting one more merge costs. Deadline
	// shedding uses it to drop queued requests that could no longer finish
	// in budget — canceling a doomed merge mid-flight refunds nothing, so
	// the cheap place to shed is before the engine ever sees it. Executor
	// goroutine only.
	mergeEWMA time.Duration

	submitCh chan *request
	statsCh  chan chan ShardStats
	// ctrlCh delivers control closures (topic export/import, drain probes)
	// into the executor goroutine; every select that serves statsCh serves it
	// too, so control work interleaves between scheduling rounds and never
	// races the engine.
	ctrlCh chan func()
	stopCh chan struct{}
	doneCh chan struct{}

	// topics maps a topic key (canonical keywords joined with NUL) to the
	// plan-graph node keys its merges touched, recorded at admission from
	// merge footprints and consumed by topic export. FIFO-bounded; executor
	// goroutine only.
	topics     map[string]map[string]bool
	topicOrder []string

	// Crash-recovery tier (nil/empty unless Config.CheckpointDir is set).
	// store owns the shard's checkpoint directory; cpMu serializes its Write
	// against the periodic loop. jnl is the admission journal, confined to
	// the executor goroutine (Admit/Done in admit/respond, Rewrite inside
	// the checkpoint exec closure). pendingRecover holds a loaded checkpoint
	// until Recover imports it (executor goroutine via exec); recovered is
	// the journal's replayed in-flight set, static after newShard.
	store          *recovery.Store
	cpMu           sync.Mutex
	jnl            *recovery.Journal
	pendingRecover *state.TopicExport
	pendingGen     int
	recovered      []recovery.QueryRecord
	rec            recStats
}

// maxTopicFootprints bounds the per-shard topic→footprint table; the oldest
// topic's entry falls off first (its export then finds nothing, which is
// safe — migration degrades to not moving state, never to moving wrong
// state).
const maxTopicFootprints = 1024

func newShard(id int, w *workload.Workload, cfg Config, svc *metrics.Service, arb *state.Arbiter) *shard {
	// eid is the shard's engine identity: equal to id in-process, offset in a
	// distributed fleet so shard process i reproduces in-process shard i.
	eid := cfg.ShardIDOffset + id
	// The shard's seed salt keeps everything seeded different across shards.
	seed := cfg.Seed + uint64(eid)*7919
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{
		Mode:         qsm.ShareAll,
		Seed:         seed,
		MemoryBudget: cfg.MemoryBudget,
		RealTime:     cfg.RealTime,
	})
	env, ctrl, mgr := p.Env, p.ATC, p.Manager
	if svc != nil {
		env.Metrics.TeeBatch(&svc.ExecBatch, &svc.ExecBatchFlushes, &svc.ExecBatchFull)
	}
	policy, err := state.ParsePolicy(cfg.EvictPolicy)
	if err != nil {
		panic("service: " + err.Error())
	}
	mgr.State.SetPolicy(policy)
	if arb != nil {
		// The shard's budget is its arbitrated share of the global budget,
		// re-apportioned at every enforcement from current demand.
		ledger := mgr.State.Ledger
		mgr.State.SetBudgetFn(func() int { return arb.Allot(id, ledger.Total()) })
	}
	if cfg.SpillDir != "" {
		dir := filepath.Join(cfg.SpillDir, fmt.Sprintf("shard-%d", eid))
		if err := mgr.EnableSpill(dir, mgr.DefaultResolver()); err != nil {
			panic("service: " + err.Error())
		}
	}
	if !cfg.JointOptimize {
		mgr.Unit = qsm.UnitUQ
	}
	sh := &shard{
		id:       id,
		cfg:      cfg,
		svc:      svc,
		arb:      arb,
		env:      env,
		ctrl:     ctrl,
		mgr:      mgr,
		waiters:  map[string]*request{},
		submitCh: make(chan *request, cfg.MaxQueue),
		statsCh:  make(chan chan ShardStats),
		ctrlCh:   make(chan func()),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
		topics:   map[string]map[string]bool{},
	}
	if cfg.Admission.AdaptiveWindow {
		sh.win = admission.NewWindowController(
			cfg.Admission.WindowMin, cfg.Admission.WindowMax, cfg.Admission.Deadline)
	}
	if cfg.CheckpointDir != "" {
		dir := filepath.Join(cfg.CheckpointDir, fmt.Sprintf("shard-%d", eid))
		store, err := recovery.Open(dir)
		if err != nil {
			panic("service: " + err.Error())
		}
		sh.store = store
		// A committed generation from a previous process is staged here and
		// imported by Recover — after this shard's graph exists but before
		// the front-end routes queries at it.
		cp, err := store.Load()
		if err == nil && cp != nil {
			sh.pendingRecover = cp.Export
			sh.pendingGen = cp.Generation
			sh.rec.generation.Store(int64(cp.Generation))
			sh.rec.loaded.Add(1)
			sh.rec.segsDropped.Add(int64(cp.Dropped))
			if fm := cfg.FleetMetrics; fm != nil {
				fm.CheckpointsLoaded.Inc()
				fm.SegmentsDropped.Add(int64(cp.Dropped))
			}
		}
		// Journal replay: admits without a done are the queries in flight at
		// the crash — the recovered-abort set.
		jnl, aborted, err := store.OpenJournal()
		if err != nil {
			panic("service: " + err.Error())
		}
		sh.jnl = jnl
		sh.recovered = aborted
	}
	go sh.run()
	return sh
}

// window is the current admission-window length: the adaptive controller's
// output when configured, the fixed BatchWindow otherwise.
func (sh *shard) window() time.Duration {
	if sh.win != nil {
		return sh.win.Window()
	}
	return sh.cfg.BatchWindow
}

// run is the executor loop: collect an admission window, admit it into the
// running plan graph, drive rank-merges one round at a time, and dispatch
// completions — all while polling for new arrivals so late queries graft onto
// the graph mid-execution (§6.2).
func (sh *shard) run() {
	defer close(sh.doneCh)
	stopping := false

	for {
		// Intake: block when idle, poll when busy.
		switch {
		case stopping:
			sh.drainNonblocking()
		case len(sh.pending) == 0 && len(sh.waiters) == 0:
			select {
			case r := <-sh.submitCh:
				sh.accept(r)
			case req := <-sh.statsCh:
				req <- sh.snapshot()
			case fn := <-sh.ctrlCh:
				fn()
			case <-sh.stopCh:
				stopping = true
			}
		case len(sh.waiters) == 0 && sh.windowOpen():
			// Nothing executing; sleep until the window closes or news.
			timer := time.NewTimer(time.Until(sh.windowStart.Add(sh.window())))
			select {
			case r := <-sh.submitCh:
				sh.accept(r)
			case req := <-sh.statsCh:
				req <- sh.snapshot()
			case fn := <-sh.ctrlCh:
				fn()
			case <-timer.C:
			case <-sh.stopCh:
				stopping = true
			}
			timer.Stop()
		default:
			sh.drainNonblocking()
			select {
			case <-sh.stopCh:
				stopping = true
			default:
			}
		}

		// Drop pending requests whose caller has given up or whose latency
		// budget ran out while still queued.
		sh.pruneCanceled()

		// Release the admission window when due (size, time, no-window, or
		// shutdown flush), in chunks of at most BatchSize: optimization cost
		// grows steeply with batch size (Figure 11), so a burst that drained
		// in at once is still optimized in paper-sized groups. With no window
		// configured every query is optimized alone — Figure 9's SINGLE-OPT
		// baseline — even when arrivals queued up simultaneously.
		if len(sh.pending) > 0 && (stopping || !sh.windowOpen()) {
			chunk := 1
			if sh.window() > 0 {
				chunk = sh.cfg.BatchSize
				if chunk <= 0 {
					chunk = len(sh.pending)
				}
			}
			// MaxInFlight holds excess releases in the queue: the engine
			// processor-shares rounds across every admitted merge, so an
			// unbounded in-flight set under overload drags them all past any
			// deadline together. A stopping shard flushes regardless — its
			// requests settle via the drain path, not the engine.
			limit := 0
			if !stopping {
				limit = sh.cfg.Admission.MaxInFlight
			}
			for len(sh.pending) > 0 {
				n := len(sh.pending)
				if n > chunk {
					n = chunk
				}
				if limit > 0 {
					room := limit - len(sh.waiters)
					if room <= 0 {
						break
					}
					if n > room {
						n = room
					}
				}
				sh.admit(sh.pending[:n])
				sh.pending = sh.pending[n:]
			}
			if len(sh.pending) == 0 {
				sh.pending = nil
			}
		}

		// Cancel admitted queries whose caller has given up, and shed those
		// past their latency budget: both unlink their plan segments so no
		// further work is spent on them. A deadline shed here is
		// post-admission — the merge may have partially executed — so the
		// error is non-retryable by construction.
		now := time.Now()
		for id, r := range sh.waiters {
			switch {
			case r.ctx.Err() != nil:
				sh.ctrl.CancelMerge(id)
				sh.ctrl.Forget(id)
				delete(sh.waiters, id)
				sh.respond(r, nil, r.ctx.Err())
			case r.expired(now):
				// Feed the time already invested back into the merge-time
				// EWMA as a lower-bound sample: canceled merges are exactly
				// the slow ones, and without this the estimate only ever
				// learns from survivors and stays too optimistic to keep
				// doomed work out of the engine.
				if !r.admitted.IsZero() {
					if d := now.Sub(r.admitted); d > sh.mergeEWMA {
						sh.mergeEWMA += (d - sh.mergeEWMA) / 4
					}
				}
				sh.ctrl.CancelMerge(id)
				sh.ctrl.Forget(id)
				delete(sh.waiters, id)
				sh.respond(r, nil, &admission.ShedError{Reason: admission.ReasonDeadline})
			}
		}

		// One scheduling round; dispatch whatever finished.
		if len(sh.waiters) > 0 {
			sh.ctrl.RunRound()
			finished := false
			for id, r := range sh.waiters {
				m := sh.ctrl.MergeByUQ(id)
				if m == nil || !m.Done {
					continue
				}
				delete(sh.waiters, id)
				if m.Err != nil {
					// The merge failed inside the engine (non-convergent
					// round or recovered operator panic): the caller gets a
					// failed search instead of the process dying.
					sh.respond(r, nil, fmt.Errorf("service: query %s failed: %w", id, m.Err))
				} else {
					sh.respond(r, sh.result(r, m), nil)
				}
				sh.ctrl.Forget(id)
				finished = true
			}
			if finished {
				// Feed observed statistics back so the next admission costs
				// reuse correctly (§6.1).
				sh.mgr.SyncCatalog()
			}
		}

		if stopping && len(sh.pending) == 0 && len(sh.waiters) == 0 && len(sh.submitCh) == 0 {
			return
		}
	}
}

// windowOpen reports whether the admission window should keep collecting.
func (sh *shard) windowOpen() bool {
	if len(sh.pending) == 0 {
		return false
	}
	win := sh.window()
	if win <= 0 {
		return false
	}
	if sh.cfg.BatchSize > 0 && len(sh.pending) >= sh.cfg.BatchSize {
		return false
	}
	return time.Now().Before(sh.windowStart.Add(win))
}

func (sh *shard) accept(r *request) {
	if len(sh.pending) == 0 {
		sh.windowStart = time.Now()
	}
	sh.pending = append(sh.pending, r)
	sh.depth.Add(1)
	sh.svc.Queued.Inc()
}

func (sh *shard) drainNonblocking() {
	for {
		select {
		case r := <-sh.submitCh:
			sh.accept(r)
		case req := <-sh.statsCh:
			req <- sh.snapshot()
		case fn := <-sh.ctrlCh:
			fn()
		default:
			return
		}
	}
}

// pruneCanceled drops pending requests whose caller has given up, and sheds
// those whose latency budget expired — or provably will before a merge could
// finish (remaining budget below the observed merge time) — while still
// queued. Shedding doomed work here, before admission, is what keeps goodput
// near capacity under overload: a merge canceled mid-flight has already
// burned engine rounds nothing refunds.
func (sh *shard) pruneCanceled() {
	now := time.Now()
	kept := sh.pending[:0]
	for _, r := range sh.pending {
		doomed := !r.deadline.IsZero() && sh.mergeEWMA > 0 &&
			now.Add(sh.mergeEWMA).After(r.deadline)
		switch {
		case r.ctx.Err() != nil:
			sh.depth.Add(-1)
			sh.svc.Queued.Dec()
			sh.respond(r, nil, r.ctx.Err())
		case r.expired(now) || doomed:
			sh.depth.Add(-1)
			sh.svc.Queued.Dec()
			sh.respond(r, nil, &admission.ShedError{Reason: admission.ReasonDeadline})
		default:
			kept = append(kept, r)
		}
	}
	sh.pending = kept
}

// admit grafts a released batch into the running plan graph and registers its
// callers as waiters.
func (sh *shard) admit(batch []*request) {
	waiters := sh.waiters
	now := sh.env.Clock.Now()
	subs := make([]batcher.Submission, len(batch))
	maxK := 0
	for i, r := range batch {
		subs[i] = batcher.Submission{At: now, UQ: r.uq}
		if r.uq.K > maxK {
			maxK = r.uq.K
		}
		sh.depth.Add(-1)
		sh.svc.Queued.Dec()
	}
	if sh.win != nil {
		// Feed the control loop the backlog left behind by this release: a
		// deep queue argues for a wider window (bigger shared batches), an
		// empty one for snappier admission.
		sh.win.ObserveQueue(len(sh.submitCh)+int(sh.depth.Load()), len(batch))
	}
	sh.mgr.SyncCatalog()
	sh.svc.Batches.Inc()
	sh.svc.BatchOccupancy.Observe(len(batch))
	if sh.jnl != nil {
		// Journal the batch durable BEFORE the engine sees it: an admitted
		// merge the journal does not know about could silently vanish in a
		// crash and violate the no-double-execution retry contract. A failed
		// journal write only widens what a restart re-derives — never admits
		// untracked work silently wrong, so it is best-effort here, counted
		// in RecoveryStats().JournalErrors.
		recs := make([]recovery.QueryRecord, len(batch))
		for i, r := range batch {
			recs[i] = queryRecord(r)
			r.journaled = true
		}
		sh.countJournalErr(sh.jnl.Admit(recs))
	}
	if _, err := sh.mgr.Admit(subs, mqo.Config{K: maxK}); err != nil {
		// Admit may have registered merges for earlier batch members before
		// failing; cancel and drop them so no orphaned query keeps running.
		for _, r := range batch {
			sh.ctrl.CancelMerge(r.uq.ID)
			sh.ctrl.Forget(r.uq.ID)
			sh.respond(r, nil, fmt.Errorf("service: admit: %w", err))
		}
		return
	}
	wallNow := time.Now()
	for _, r := range batch {
		m := sh.ctrl.MergeByUQ(r.uq.ID)
		if m == nil {
			sh.respond(r, nil, fmt.Errorf("service: query %s not registered", r.uq.ID))
			continue
		}
		r.batchSize = len(batch)
		r.admitted = wallNow
		waiters[r.uq.ID] = r
		sh.noteTopic(r.uq.Keywords, m.Footprint())
	}
}

// result assembles the caller-facing view of a finished merge.
func (sh *shard) result(r *request, m *atc.MergeState) *Result {
	res := &Result{
		ID:                r.uq.ID,
		Keywords:          r.uq.Keywords,
		CandidateNetworks: len(r.uq.CQs),
		ExecutedNetworks:  m.RM.ExecutedCQs(),
		Shard:             sh.id,
		BatchSize:         r.batchSize,
		EngineLatency:     m.Latency(),
		WallLatency:       time.Since(r.enqueued),
	}
	for i, rr := range m.RM.Results() {
		res.Answers = append(res.Answers, Answer{
			Rank:   i + 1,
			Score:  rr.Score,
			Query:  rr.CQID,
			Tuples: rr.Row.Parts(),
		})
	}
	return res
}

// respond settles a request exactly once (the response channel is buffered,
// so an abandoned caller never blocks the executor) and maintains the
// request-lifecycle metrics.
func (sh *shard) respond(r *request, res *Result, err error) {
	sh.svc.InFlight.Dec()
	var shed *admission.ShedError
	switch {
	case err == nil:
		sh.svc.Completed.Inc()
		sh.svc.WallLatency.Observe(res.WallLatency)
		sh.svc.EngineLatency.Observe(res.EngineLatency)
		if sh.win != nil {
			sh.win.ObserveLatency(res.WallLatency)
		}
		if !r.admitted.IsZero() {
			d := time.Since(r.admitted)
			sh.mergeEWMA += (d - sh.mergeEWMA) / 4
		}
	case errors.As(err, &shed) && shed.Reason == admission.ReasonDeadline:
		sh.svc.DeadlineCanceled.Inc()
	case r.ctx.Err() != nil:
		sh.svc.Canceled.Inc()
	default:
		sh.svc.Rejected.Inc()
	}
	if sh.jnl != nil && r.journaled {
		// Every settlement of an admitted query — success, cancel, shed,
		// abort — closes its journal entry: a merge that reached the engine
		// and was settled is no longer a crash casualty.
		sh.countJournalErr(sh.jnl.Done(r.uq.ID))
	}
	r.resp <- response{res: res, err: err}
}

// abort settles every pending and admitted request with reason, canceling
// merges and unlinking plan segments. Executor goroutine only (callers go
// through exec); the drain deadline uses it to guarantee the export handoff
// completes even when a merge never converges. Returns the number aborted.
func (sh *shard) abort(reason error) int {
	sh.drainNonblocking()
	n := 0
	for _, r := range sh.pending {
		sh.depth.Add(-1)
		sh.svc.Queued.Dec()
		sh.respond(r, nil, reason)
		n++
	}
	sh.pending = nil
	for id, r := range sh.waiters {
		sh.ctrl.CancelMerge(id)
		sh.ctrl.Forget(id)
		delete(sh.waiters, id)
		sh.respond(r, nil, reason)
		n++
	}
	return n
}

// snapshot reads the engine state; only ever called from the executor
// goroutine (or after it has exited).
func (sh *shard) snapshot() ShardStats {
	// The displayed budget is a side-effect-free peek: reading stats must
	// not re-record demand in the arbiter and shift other shards' shares.
	budget := sh.cfg.MemoryBudget
	if sh.arb != nil {
		budget = sh.arb.Share(sh.id)
	}
	ss := ShardStats{
		Shard:             sh.id,
		Work:              sh.env.Metrics.Snapshot(),
		Graph:             sh.ctrl.Graph.Stats(),
		StateRows:         sh.mgr.StateSize(),
		StateRowsAudit:    sh.mgr.AuditStateSize(),
		ScratchRows:       sh.mgr.ScratchSize(),
		ScratchRowsAudit:  sh.mgr.AuditScratchSize(),
		Batch:             sh.env.Metrics.BatchOccupancy(),
		Budget:            budget,
		Evictions:         sh.mgr.Evictions(),
		EvictionsByPolicy: sh.mgr.State.EvictionsByPolicy(),
		PlanCache:         sh.mgr.PlanCacheStats(),
		Now:               sh.env.Clock.Now(),
	}
	if sp := sh.mgr.State.Spill(); sp != nil {
		ss.Spill = sp.Stats()
	}
	return ss
}

// stats fetches a snapshot through the executor, or directly once it exited.
func (sh *shard) stats() ShardStats {
	req := make(chan ShardStats, 1)
	select {
	case sh.statsCh <- req:
		return <-req
	case <-sh.doneCh:
		return sh.snapshot()
	}
}

// topicKey names a topic for footprint tracking: the canonical keyword set
// joined with NUL (the router's memo key for the same set).
func topicKey(keywords []string) string {
	return strings.Join(CanonicalKeywords(keywords), "\x00")
}

// noteTopic folds a newly admitted merge's plan-graph footprint into its
// topic's node-key set. Executor goroutine only.
func (sh *shard) noteTopic(keywords []string, nodeKeys []string) {
	key := topicKey(keywords)
	if key == "" || len(nodeKeys) == 0 {
		return
	}
	set := sh.topics[key]
	if set == nil {
		if len(sh.topicOrder) >= maxTopicFootprints {
			delete(sh.topics, sh.topicOrder[0])
			sh.topicOrder = sh.topicOrder[1:]
		}
		set = map[string]bool{}
		sh.topics[key] = set
		sh.topicOrder = append(sh.topicOrder, key)
	}
	for _, k := range nodeKeys {
		set[k] = true
	}
}

// exportTopic serializes and discards the topic's idle retained state.
// Executor goroutine only (callers go through exec). The footprint entry is
// consumed: the nodes it named are gone from this shard, and any that were
// not exportable (still feeding other topics) will be re-recorded by the
// next admission that touches them.
func (sh *shard) exportTopic(keywords []string) *state.TopicExport {
	canon := CanonicalKeywords(keywords)
	key := strings.Join(canon, "\x00")
	set := sh.topics[key]
	if len(set) == 0 {
		return &state.TopicExport{Keywords: canon, Epoch: sh.ctrl.Epoch()}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	exp := sh.mgr.ExportNodes(keys)
	exp.Keywords = canon
	delete(sh.topics, key)
	for i, k := range sh.topicOrder {
		if k == key {
			sh.topicOrder = append(sh.topicOrder[:i], sh.topicOrder[i+1:]...)
			break
		}
	}
	return exp
}

// exportAll serializes and discards every idle evictable node the shard
// retains, whatever topic it belongs to — the drain handoff. Executor
// goroutine only (callers go through exec). Topic footprints are cleared:
// the nodes they named are gone.
func (sh *shard) exportAll() *state.TopicExport {
	exp := sh.mgr.ExportNodes(nil)
	sh.topics = map[string]map[string]bool{}
	sh.topicOrder = nil
	return exp
}

// exec runs fn on the executor goroutine and waits for it, falling back to a
// direct call once the executor has exited (the engine is quiescent then, so
// the call is safe from any goroutine).
func (sh *shard) exec(fn func()) {
	done := make(chan struct{})
	wrapped := func() { defer close(done); fn() }
	select {
	case sh.ctrlCh <- wrapped:
		<-done
	case <-sh.doneCh:
		fn()
	}
}
