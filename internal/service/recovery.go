package service

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/recovery"
	"repro/internal/state"
)

// Crash recovery at the service layer. With Config.CheckpointDir set, the
// engine owns a recovery.Store under CheckpointDir/shard-<id>: a periodic
// checkpoint loop captures every quiescent plan node's retained state on the
// executor goroutine (qsm.CheckpointExport — non-destructive, point-in-time
// consistent by construction) and publishes it as a generation-numbered
// manifest, while an admission journal records which user queries were in
// flight. A fresh Service over the same directory loads the newest
// generation; Recover imports it through the same consistency gate that
// protects spill revival and live migration, so a checkpoint that does not
// match the rebuilt graph is dropped and re-derived from the sources —
// never installed wrong.

// recStats is the engine's recovery-tier counters. Written by the checkpoint
// loop and the startup/Recover paths, read by health/stats handlers on
// arbitrary goroutines — hence atomics.
type recStats struct {
	generation    atomic.Int64
	written       atomic.Int64 // checkpoint generations published
	loaded        atomic.Int64 // checkpoints loaded at startup
	segsWritten   atomic.Int64
	segsRecovered atomic.Int64
	segsDropped   atomic.Int64
	journalErrs   atomic.Int64 // failed journal admit / done / rewrite calls
}

// countJournalErr counts a failed admission-journal write. The journal is
// best-effort (see Service.admit), so the error is not returned — but a full
// or failing disk must be visible in /stats and /rpc/health.
func (s *Service) countJournalErr(err error) {
	if err != nil {
		s.rec.journalErrs.Add(1)
	}
}

// CheckpointReport summarises one published checkpoint generation.
type CheckpointReport struct {
	Generation int `json:"generation"`
	Segments   int `json:"segments"`
	Rows       int `json:"rows"`
	// Skipped is true when the engine still holds an unrecovered loaded
	// checkpoint: publishing a fresh (near-empty) generation before Recover
	// runs would garbage-collect the very state the restart is for.
	Skipped bool `json:"skipped"`
}

// RecoverReport summarises one warm-restart import.
type RecoverReport struct {
	Generation int `json:"generation"`
	Installed  int `json:"installed"`
	Dropped    int `json:"dropped"`
	Rows       int `json:"rows"`
}

// openRecovery opens the engine's checkpoint store and admission journal in
// dir. A committed generation from a previous process is staged here and
// imported by Recover — after the engine's graph exists but before the front
// desk routes queries at it; the journal's admits without a done are the
// queries in flight at the crash — the recovered-abort set.
func (s *Service) openRecovery(dir string) {
	store, err := recovery.Open(dir)
	if err != nil {
		panic("service: " + err.Error())
	}
	s.store = store
	cp, err := store.Load()
	if err == nil && cp != nil {
		s.pendingRecover = cp.Export
		s.pendingGen = cp.Generation
		s.rec.generation.Store(int64(cp.Generation))
		s.rec.loaded.Add(1)
		s.rec.segsDropped.Add(int64(cp.Dropped))
		if fm := s.cfg.FleetMetrics; fm != nil {
			fm.CheckpointsLoaded.Inc()
			fm.SegmentsDropped.Add(int64(cp.Dropped))
		}
	}
	jnl, aborted, err := store.OpenJournal()
	if err != nil {
		panic("service: " + err.Error())
	}
	s.jnl = jnl
	s.recovered = aborted
}

// Checkpoint captures and durably publishes one checkpoint generation, and
// compacts the admission journal to the current in-flight set. Safe to call
// concurrently with serving (the capture runs on the executor goroutine; only
// encoded bytes leave it) and with the periodic loop (the store write is
// serialized).
func (s *Service) Checkpoint() (*CheckpointReport, error) {
	if s.store == nil {
		return nil, fmt.Errorf("service: engine %d has no checkpoint store", s.cfg.ShardIDOffset)
	}
	rep := &CheckpointReport{}
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	var exp *state.TopicExport
	s.exec(func() {
		if s.pendingRecover != nil {
			rep.Skipped = true
			return
		}
		e := s.mgr.CheckpointExport()
		// Compact the journal to the live in-flight set, sorted by UQ id so
		// the rewrite is deterministic (waiters/pending are map/slice mix).
		var inflight []recovery.QueryRecord
		for _, r := range s.waiters {
			inflight = append(inflight, queryRecord(r))
		}
		for _, r := range s.pending {
			inflight = append(inflight, queryRecord(r))
		}
		sort.Slice(inflight, func(i, j int) bool { return inflight[i].ID < inflight[j].ID })
		s.countJournalErr(s.jnl.Rewrite(inflight))
		exp = e
	})
	if rep.Skipped {
		return rep, nil
	}
	gen, err := s.store.Write(exp)
	if err != nil {
		return nil, err
	}
	rep.Generation = gen
	rep.Segments = len(exp.Segments)
	rep.Rows = exp.Rows()
	s.rec.generation.Store(int64(gen))
	s.rec.written.Add(1)
	s.rec.segsWritten.Add(int64(len(exp.Segments)))
	if fm := s.cfg.FleetMetrics; fm != nil {
		fm.CheckpointsWritten.Inc()
	}
	return rep, nil
}

// Recover imports the loaded checkpoint (if any) through the consistency
// gate, staging its segments for revival and installing the catalog's
// streamed-prefix deltas so the optimizer re-derives the same plans the
// crashed engine ran. Idempotent: a second call (or a call on a cold-started
// engine) is a no-op.
func (s *Service) Recover() (*RecoverReport, error) {
	rep := &RecoverReport{}
	s.exec(func() {
		if s.pendingRecover == nil {
			return
		}
		rep.Generation = s.pendingGen
		rep.Installed, rep.Dropped, rep.Rows = s.mgr.ImportSegments(s.pendingRecover)
		s.pendingRecover = nil
	})
	if rep.Installed > 0 || rep.Dropped > 0 {
		s.rec.segsRecovered.Add(int64(rep.Installed))
		s.rec.segsDropped.Add(int64(rep.Dropped))
		if fm := s.cfg.FleetMetrics; fm != nil {
			fm.SegmentsRecovered.Add(int64(rep.Installed))
			fm.SegmentsDropped.Add(int64(rep.Dropped))
		}
	}
	return rep, nil
}

// RecoveredAborts returns the queries the admission journal proves were in
// flight when the previous process crashed: admitted, never completed. They
// are reported (and shed) as non-retryable recovered-aborts; the front-end's
// re-dispatch path may resubmit them elsewhere. Static after New.
func (s *Service) RecoveredAborts() []recovery.QueryRecord { return s.recovered }

// RecoveryStats reports the recovery tier's counters. Cheap (atomics only) —
// health handlers poll it.
func (s *Service) RecoveryStats() recovery.StatsSnapshot {
	if s.store == nil {
		return recovery.StatsSnapshot{}
	}
	return recovery.StatsSnapshot{
		Enabled:            true,
		Generation:         int(s.rec.generation.Load()),
		CheckpointsWritten: s.rec.written.Load(),
		CheckpointsLoaded:  s.rec.loaded.Load(),
		SegmentsWritten:    s.rec.segsWritten.Load(),
		SegmentsRecovered:  s.rec.segsRecovered.Load(),
		SegmentsDropped:    s.rec.segsDropped.Load(),
		JournaledAborts:    len(s.recovered),
		JournalErrors:      s.rec.journalErrs.Load(),
	}
}

// checkpointLoop periodically checkpoints the engine. While it still holds
// an unrecovered checkpoint, Checkpoint itself skips.
func (s *Service) checkpointLoop(interval time.Duration) {
	defer close(s.cpDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.cpStop:
			return
		case <-t.C:
			s.Checkpoint() //nolint:errcheck // the next tick retries; failures surface in RecoveryStats
		}
	}
}

// queryRecord projects a request into its journal record.
func queryRecord(r *request) recovery.QueryRecord {
	return recovery.QueryRecord{ID: r.uq.ID, Keywords: r.uq.Keywords, K: r.uq.K}
}
