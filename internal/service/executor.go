package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/recovery"
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

// run is the executor loop: collect an admission window, admit it into the
// running plan graph, drive rank-merges one round at a time, and dispatch
// completions — all while polling for new arrivals so late queries graft onto
// the graph mid-execution (§6.2).
func (s *Service) run() {
	defer close(s.doneCh)
	stopping := false

	for {
		// Intake: block when idle, poll when busy.
		switch {
		case stopping:
			s.drainNonblocking()
		case len(s.pending) == 0 && len(s.waiters) == 0:
			select {
			case r := <-s.submitCh:
				s.accept(r)
			case fn := <-s.ctrlCh:
				fn()
			case <-s.stopCh:
				stopping = true
			}
		case len(s.waiters) == 0 && s.windowOpen():
			// Nothing executing; sleep until the window closes or news.
			timer := time.NewTimer(time.Until(s.windowStart.Add(s.cfg.BatchWindow)))
			select {
			case r := <-s.submitCh:
				s.accept(r)
			case fn := <-s.ctrlCh:
				fn()
			case <-timer.C:
			case <-s.stopCh:
				stopping = true
			}
			timer.Stop()
		default:
			s.drainNonblocking()
			select {
			case <-s.stopCh:
				stopping = true
			default:
			}
		}

		// Drop pending requests whose caller has given up or whose latency
		// budget ran out while still queued.
		s.pruneCanceled()

		// Release the admission window when due (size, time, no-window, or
		// shutdown flush), in chunks of at most BatchSize: optimization cost
		// grows steeply with batch size (Figure 11), so a burst that drained
		// in at once is still optimized in paper-sized groups. With no window
		// configured every query is optimized alone — Figure 9's SINGLE-OPT
		// baseline — even when arrivals queued up simultaneously.
		if len(s.pending) > 0 && (stopping || !s.windowOpen()) {
			chunk := 1
			if s.cfg.BatchWindow > 0 {
				chunk = s.cfg.BatchSize
				if chunk <= 0 {
					chunk = len(s.pending)
				}
			}
			// MaxInFlight holds excess releases in the queue: the engine
			// processor-shares rounds across every admitted merge, so an
			// unbounded in-flight set under overload drags them all past any
			// deadline together. A stopping engine flushes regardless — its
			// requests settle via the drain path, not the engine.
			limit := 0
			if !stopping {
				limit = s.cfg.Admission.MaxInFlight
			}
			for len(s.pending) > 0 {
				n := len(s.pending)
				if n > chunk {
					n = chunk
				}
				if limit > 0 {
					room := limit - len(s.waiters)
					if room <= 0 {
						break
					}
					if n > room {
						n = room
					}
				}
				s.admit(s.pending[:n])
				s.pending = s.pending[n:]
			}
			if len(s.pending) == 0 {
				s.pending = nil
			}
		}

		// Cancel admitted queries whose caller has given up, and shed those
		// past their latency budget: both unlink their plan segments so no
		// further work is spent on them. A deadline shed here is
		// post-admission — the merge may have partially executed — so the
		// error is non-retryable by construction.
		now := time.Now()
		for id, r := range s.waiters {
			switch {
			case r.ctx.Err() != nil:
				s.ctrl.Forget(id)
				delete(s.waiters, id)
				s.respond(r, nil, r.ctx.Err())
			case r.expired(now):
				// Feed the time already invested back into the merge-time
				// EWMA as a lower-bound sample: canceled merges are exactly
				// the slow ones, and without this the estimate only ever
				// learns from survivors and stays too optimistic to keep
				// doomed work out of the engine.
				if !r.admitted.IsZero() {
					if d := now.Sub(r.admitted); d > s.mergeEWMA {
						s.mergeEWMA += (d - s.mergeEWMA) / 4
					}
				}
				s.ctrl.Forget(id)
				delete(s.waiters, id)
				s.respond(r, nil, &admission.ShedError{Reason: admission.ReasonDeadline})
			}
		}

		// One scheduling round; dispatch whatever finished.
		if len(s.waiters) > 0 {
			s.ctrl.RunRound()
			for id, r := range s.waiters {
				m := s.ctrl.MergeByUQ(id)
				if m == nil || !m.Done {
					continue
				}
				delete(s.waiters, id)
				if m.Err != nil {
					// The merge failed inside the engine (non-convergent
					// round or recovered operator panic): the caller gets a
					// failed search instead of the process dying.
					s.respond(r, nil, fmt.Errorf("service: query %s failed: %w", id, m.Err))
				} else {
					s.respond(r, s.result(r, m), nil)
				}
				s.ctrl.Forget(id)
			}
		}

		if stopping && len(s.pending) == 0 && len(s.waiters) == 0 && len(s.submitCh) == 0 {
			return
		}
	}
}

// windowOpen reports whether the admission window should keep collecting.
func (s *Service) windowOpen() bool {
	if len(s.pending) == 0 {
		return false
	}
	if s.cfg.BatchWindow <= 0 {
		return false
	}
	if s.cfg.BatchSize > 0 && len(s.pending) >= s.cfg.BatchSize {
		return false
	}
	return time.Now().Before(s.windowStart.Add(s.cfg.BatchWindow))
}

func (s *Service) accept(r *request) {
	if len(s.pending) == 0 {
		s.windowStart = time.Now()
	}
	s.pending = append(s.pending, r)
	s.depth.Add(1)
	s.svc.Queued.Inc()
}

func (s *Service) drainNonblocking() {
	for {
		select {
		case r := <-s.submitCh:
			s.accept(r)
		case fn := <-s.ctrlCh:
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
func (s *Service) pruneCanceled() {
	now := time.Now()
	kept := s.pending[:0]
	for _, r := range s.pending {
		doomed := !r.deadline.IsZero() && s.mergeEWMA > 0 &&
			now.Add(s.mergeEWMA).After(r.deadline)
		switch {
		case r.ctx.Err() != nil:
			s.depth.Add(-1)
			s.svc.Queued.Dec()
			s.respond(r, nil, r.ctx.Err())
		case r.expired(now) || doomed:
			s.depth.Add(-1)
			s.svc.Queued.Dec()
			s.respond(r, nil, &admission.ShedError{Reason: admission.ReasonDeadline})
		default:
			kept = append(kept, r)
		}
	}
	s.pending = kept
}

// admit grafts a released batch into the running plan graph and registers its
// callers as waiters.
func (s *Service) admit(batch []*request) {
	waiters := s.waiters
	now := s.env.Clock.Now()
	subs := make([]batcher.Submission, len(batch))
	maxK := 0
	for i, r := range batch {
		subs[i] = batcher.Submission{At: now, UQ: r.uq}
		if r.uq.K > maxK {
			maxK = r.uq.K
		}
		s.depth.Add(-1)
		s.svc.Queued.Dec()
	}
	s.svc.Batches.Inc()
	s.svc.BatchOccupancy.Observe(len(batch))
	if s.jnl != nil {
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
		s.countJournalErr(s.jnl.Admit(recs))
	}
	if _, err := s.mgr.Admit(subs, mqo.Config{K: maxK}); err != nil {
		// A failed Admit leaves none of the batch registered.
		for _, r := range batch {
			s.respond(r, nil, fmt.Errorf("service: admit: %w", err))
		}
		return
	}
	wallNow := time.Now()
	for _, r := range batch {
		r.batchSize = len(batch)
		r.admitted = wallNow
		waiters[r.uq.ID] = r
	}
}

// result assembles the caller-facing view of a finished merge.
func (s *Service) result(r *request, m *atc.MergeState) *Result {
	res := &Result{
		ID:                r.uq.ID,
		Keywords:          r.uq.Keywords,
		CandidateNetworks: len(r.uq.CQs),
		ExecutedNetworks:  m.RM.ExecutedCQs(),
		BatchSize:         r.batchSize,
		EngineLatency:     m.Latency(),
		WallLatency:       time.Since(r.enqueued),
	}
	rs := m.RM.Results()
	if len(rs) > 0 {
		res.Answers = make([]Answer, len(rs))
	}
	for i, rr := range rs {
		res.Answers[i] = Answer{Rank: i + 1, Score: rr.Score, Query: rr.CQID, Tuples: rr.Row.Parts()}
	}
	return res
}

// respond settles a request exactly once (the response channel is buffered,
// so an abandoned caller never blocks the executor) and maintains the
// request-lifecycle metrics.
func (s *Service) respond(r *request, res *Result, err error) {
	s.svc.InFlight.Dec()
	var shed *admission.ShedError
	switch {
	case err == nil:
		s.svc.Completed.Inc()
		s.svc.WallLatency.Observe(res.WallLatency)
		s.svc.EngineLatency.Observe(res.EngineLatency)
		if !r.admitted.IsZero() {
			d := time.Since(r.admitted)
			s.mergeEWMA += (d - s.mergeEWMA) / 4
		}
	case errors.As(err, &shed) && shed.Reason == admission.ReasonDeadline:
		s.svc.DeadlineCanceled.Inc()
	case r.ctx.Err() != nil:
		s.svc.Canceled.Inc()
	default:
		s.svc.Rejected.Inc()
	}
	if s.jnl != nil && r.journaled {
		// Every settlement of an admitted query — success, cancel, shed,
		// abort — closes its journal entry: a merge that reached the engine
		// and was settled is no longer a crash casualty.
		s.countJournalErr(s.jnl.Done(r.uq.ID))
	}
	r.resp <- response{res: res, err: err}
}

// abort settles every pending and admitted request with reason, canceling
// merges and unlinking plan segments. Executor goroutine only (callers go
// through exec); the drain deadline uses it to guarantee the drain ends even
// when a merge never converges. Returns the number aborted.
func (s *Service) abort(reason error) int {
	s.drainNonblocking()
	n := 0
	for _, r := range s.pending {
		s.depth.Add(-1)
		s.svc.Queued.Dec()
		s.respond(r, nil, reason)
		n++
	}
	s.pending = nil
	for id, r := range s.waiters {
		s.ctrl.Forget(id)
		delete(s.waiters, id)
		s.respond(r, nil, reason)
		n++
	}
	return n
}

// snapshot reads the engine state; only ever called from the executor
// goroutine (or after it has exited).
func (s *Service) snapshot() ShardStats {
	ss := ShardStats{
		Work:             s.env.Metrics.Snapshot(),
		Graph:            s.ctrl.Graph.Stats(),
		StateRows:        s.mgr.StateSize(),
		StateRowsAudit:   s.mgr.AuditStateSize(),
		ScratchRows:      s.mgr.ScratchSize(),
		ScratchRowsAudit: s.mgr.AuditScratchSize(),
		Budget:           s.cfg.MemoryBudget,
		Evictions:        s.mgr.Evictions(),
		PlanCache:        s.mgr.PlanCacheStats(),
		Now:              s.env.Clock.Now(),
	}
	if sp := s.mgr.State.Spill(); sp != nil {
		ss.Spill = sp.Stats()
	}
	return ss
}

// exec runs fn on the executor goroutine and waits for it. Once the executor
// has exited, fn runs on the caller's goroutine under s.quiet, which also
// holds off Close's teardown, so no two callers touch the engine at once.
func (s *Service) exec(fn func()) {
	done := make(chan struct{})
	wrapped := func() { defer close(done); fn() }
	select {
	case s.ctrlCh <- wrapped:
		<-done
	case <-s.doneCh:
		s.quiet.Lock()
		defer s.quiet.Unlock()
		fn()
	}
}
