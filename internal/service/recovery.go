package service

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/recovery"
	"repro/internal/state"
)

// Crash recovery at the service layer. With Config.CheckpointDir set, each
// shard owns a recovery.Store under CheckpointDir/shard-<eid>: a periodic
// checkpoint loop captures every quiescent plan node's retained state on the
// executor goroutine (qsm.CheckpointExport — non-destructive, point-in-time
// consistent by construction) and publishes it as a generation-numbered
// manifest, while an admission journal records which user queries were in
// flight. A fresh Service over the same directory loads the newest
// generation; Recover imports it through the same consistency gate that
// protects spill revival and live migration, so a checkpoint that does not
// match the rebuilt graph is dropped and re-derived from the sources —
// never installed wrong.

// recStats is one shard's recovery-tier counters. Written by the checkpoint
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
// best-effort (see shard.admit), so the error is not returned — but a full
// or failing disk must be visible in /stats and /rpc/health.
func (sh *shard) countJournalErr(err error) {
	if err != nil {
		sh.rec.journalErrs.Add(1)
	}
}

// CheckpointReport summarises one published checkpoint generation.
type CheckpointReport struct {
	Generation int `json:"generation"`
	Segments   int `json:"segments"`
	Rows       int `json:"rows"`
	// Skipped is true when the shard still holds an unrecovered loaded
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

// Checkpoint captures and durably publishes one checkpoint generation for
// the given shard, and compacts its admission journal to the current
// in-flight set. Safe to call concurrently with serving (the capture runs on
// the executor goroutine; only encoded bytes leave it) and with the periodic
// loop (the store write is serialized per shard).
func (s *Service) Checkpoint(shard int) (*CheckpointReport, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("service: checkpoint of unknown shard %d", shard)
	}
	sh := s.shards[shard]
	if sh.store == nil {
		return nil, fmt.Errorf("service: shard %d has no checkpoint store", shard)
	}
	rep := &CheckpointReport{}
	sh.cpMu.Lock()
	defer sh.cpMu.Unlock()
	var exp *state.TopicExport
	sh.exec(func() {
		if sh.pendingRecover != nil {
			rep.Skipped = true
			return
		}
		e := sh.mgr.CheckpointExport()
		// Compact the journal to the live in-flight set, sorted by UQ id so
		// the rewrite is deterministic (waiters/pending are map/slice mix).
		var inflight []recovery.QueryRecord
		for _, r := range sh.waiters {
			inflight = append(inflight, queryRecord(r))
		}
		for _, r := range sh.pending {
			inflight = append(inflight, queryRecord(r))
		}
		sort.Slice(inflight, func(i, j int) bool { return inflight[i].ID < inflight[j].ID })
		sh.countJournalErr(sh.jnl.Rewrite(inflight))
		exp = e
	})
	if rep.Skipped {
		return rep, nil
	}
	gen, err := sh.store.Write(exp)
	if err != nil {
		return nil, err
	}
	rep.Generation = gen
	rep.Segments = len(exp.Segments)
	rep.Rows = exp.Rows()
	sh.rec.generation.Store(int64(gen))
	sh.rec.written.Add(1)
	sh.rec.segsWritten.Add(int64(len(exp.Segments)))
	if fm := s.cfg.FleetMetrics; fm != nil {
		fm.CheckpointsWritten.Inc()
	}
	return rep, nil
}

// Recover imports the shard's loaded checkpoint (if any) through the
// consistency gate, staging its segments for revival and installing the
// catalog's streamed-prefix deltas so the optimizer re-derives the same
// plans the crashed shard ran. Idempotent: a second call (or a call on a
// cold-started shard) is a no-op.
func (s *Service) Recover(shard int) (*RecoverReport, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("service: recover of unknown shard %d", shard)
	}
	sh := s.shards[shard]
	rep := &RecoverReport{}
	sh.exec(func() {
		if sh.pendingRecover == nil {
			return
		}
		rep.Generation = sh.pendingGen
		rep.Installed, rep.Dropped, rep.Rows = sh.mgr.ImportSegments(sh.pendingRecover)
		sh.pendingRecover = nil
	})
	if rep.Installed > 0 || rep.Dropped > 0 {
		sh.rec.segsRecovered.Add(int64(rep.Installed))
		sh.rec.segsDropped.Add(int64(rep.Dropped))
		if fm := s.cfg.FleetMetrics; fm != nil {
			fm.SegmentsRecovered.Add(int64(rep.Installed))
			fm.SegmentsDropped.Add(int64(rep.Dropped))
		}
	}
	return rep, nil
}

// RecoveredAborts returns the queries the admission journals prove were in
// flight when the previous process crashed: admitted, never completed. They
// are reported (and shed) as non-retryable recovered-aborts; the front-end's
// re-dispatch path may resubmit them elsewhere. Static after New.
func (s *Service) RecoveredAborts() []recovery.QueryRecord {
	var out []recovery.QueryRecord
	for _, sh := range s.shards {
		out = append(out, sh.recovered...)
	}
	return out
}

// RecoveryStats aggregates the recovery tier's counters across shards.
// Cheap (atomics only) — health handlers poll it.
func (s *Service) RecoveryStats() recovery.StatsSnapshot {
	st := recovery.StatsSnapshot{}
	for _, sh := range s.shards {
		if sh.store == nil {
			continue
		}
		st.Enabled = true
		if g := int(sh.rec.generation.Load()); g > st.Generation {
			st.Generation = g
		}
		st.CheckpointsWritten += sh.rec.written.Load()
		st.CheckpointsLoaded += sh.rec.loaded.Load()
		st.SegmentsWritten += sh.rec.segsWritten.Load()
		st.SegmentsRecovered += sh.rec.segsRecovered.Load()
		st.SegmentsDropped += sh.rec.segsDropped.Load()
		st.JournaledAborts += len(sh.recovered)
		st.JournalErrors += sh.rec.journalErrs.Load()
	}
	return st
}

// checkpointLoop periodically checkpoints every shard. Shards still holding
// an unrecovered checkpoint are skipped inside Checkpoint itself.
func (s *Service) checkpointLoop(interval time.Duration) {
	defer close(s.cpDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.cpStop:
			return
		case <-t.C:
			for i := range s.shards {
				s.Checkpoint(i)
			}
		}
	}
}

// queryRecord projects a request into its journal record.
func queryRecord(r *request) recovery.QueryRecord {
	return recovery.QueryRecord{ID: r.uq.ID, Keywords: r.uq.Keywords, K: r.uq.K}
}
