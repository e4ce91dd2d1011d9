// Package metrics collects the execution counters the paper's evaluation
// reports: the three-way time breakdown of Figure 8 (stream read time,
// random access time, join time), the total input tuples consumed of
// Figure 10, and per-user-query bookkeeping such as the number of conjunctive
// queries executed (Table 4).
package metrics

import (
	"sync/atomic"
	"time"
)

// Counters aggregates execution work for one plan graph (one ATC). One
// goroutine drives the engine that writes them, but all methods are safe for
// concurrent use, so the serving layer's /stats and the experiment harnesses
// may snapshot and sum counters across graphs from other goroutines.
type Counters struct {
	streamTimeNS int64
	probeTimeNS  int64
	joinTimeNS   int64

	streamTuples   int64
	probeCalls     int64
	probeHits      int64
	probeTuples    int64
	joinInserts    int64
	joinProbes     int64
	resultsEmitted int64
	replayTuples   int64
	seededRows     int64

	spillSegsOut   int64
	spillRowsOut   int64
	spillBytesOut  int64
	spillSegsIn    int64
	spillRowsIn    int64
	spillBytesIn   int64
	revivalSpill   int64
	revivalSource  int64
	revivalRebound int64

	migSegsIn   int64
	migRowsIn   int64
	migRestores int64
	migDrops    int64

	batchFlushes int64
	batchRows    int64
	batchFull    int64
	batchHist    SizeHist

	// teeHist/teeFlushes/teeFull, when set (TeeBatch, once before traffic),
	// mirror batch flushes into a serving-layer Service's exec-batch metrics
	// so GET /stats aggregates occupancy across every shard's engine.
	teeHist    *SizeHist
	teeFlushes *Counter
	teeFull    *Counter
}

// TeeBatch mirrors every AddBatchFlush into the given histogram and
// counters (typically a Service's ExecBatch fields). Call once, before the
// engine runs.
func (c *Counters) TeeBatch(h *SizeHist, flushes, full *Counter) {
	c.teeHist, c.teeFlushes, c.teeFull = h, flushes, full
}

// AddStreamRead records one streaming-source read of duration d.
func (c *Counters) AddStreamRead(d time.Duration) {
	atomic.AddInt64(&c.streamTimeNS, int64(d))
	atomic.AddInt64(&c.streamTuples, 1)
}

// AddProbe records one remote random-access probe returning n tuples.
func (c *Counters) AddProbe(d time.Duration, n int) {
	atomic.AddInt64(&c.probeTimeNS, int64(d))
	atomic.AddInt64(&c.probeCalls, 1)
	atomic.AddInt64(&c.probeTuples, int64(n))
}

// AddProbeCacheHit records a probe served from the middleware probe cache.
func (c *Counters) AddProbeCacheHit() { atomic.AddInt64(&c.probeHits, 1) }

// AddJoin records in-memory join work of duration d.
func (c *Counters) AddJoin(d time.Duration) { atomic.AddInt64(&c.joinTimeNS, int64(d)) }

// AddJoinInsert counts an access-module insert.
func (c *Counters) AddJoinInsert() { atomic.AddInt64(&c.joinInserts, 1) }

// AddJoinProbe counts an access-module probe.
func (c *Counters) AddJoinProbe() { atomic.AddInt64(&c.joinProbes, 1) }

// AddResult counts a result row delivered to a user.
func (c *Counters) AddResult() { atomic.AddInt64(&c.resultsEmitted, 1) }

// AddReplayTuple counts a tuple re-processed from saved state (§6.2); replay
// does not count toward tuples consumed — that is precisely the reuse saving
// Figure 10 measures.
func (c *Counters) AddReplayTuple() { atomic.AddInt64(&c.replayTuples, 1) }

// AddSeededRows counts pre-epoch log rows handed to a newly attached
// endpoint (§6.2): results the graph computed before the query arrived,
// shared without re-deriving or re-reading them.
func (c *Counters) AddSeededRows(n int) { atomic.AddInt64(&c.seededRows, int64(n)) }

// AddSpillWrite records one evicted plan segment serialized to the disk
// tier (§6.3 spill): rows and bytes written.
func (c *Counters) AddSpillWrite(rows, bytes int64) {
	atomic.AddInt64(&c.spillSegsOut, 1)
	atomic.AddInt64(&c.spillRowsOut, rows)
	atomic.AddInt64(&c.spillBytesOut, bytes)
}

// AddSpillRead records one spilled segment read back during revival. Spill
// reads are local I/O, not source work: they count toward neither
// TuplesConsumed nor ReplayTuples.
func (c *Counters) AddSpillRead(rows, bytes int64) {
	atomic.AddInt64(&c.spillSegsIn, 1)
	atomic.AddInt64(&c.spillRowsIn, rows)
	atomic.AddInt64(&c.spillBytesIn, bytes)
}

// AddRevivalFromSpill counts a re-created node whose state came back from
// the disk tier.
func (c *Counters) AddRevivalFromSpill() { atomic.AddInt64(&c.revivalSpill, 1) }

// AddRevivalFromSource counts a re-created node that had been evicted with
// no spill segment, so its state is re-derived by fresh source reads.
func (c *Counters) AddRevivalFromSource() { atomic.AddInt64(&c.revivalSource, 1) }

// AddRevivalRebound counts a parked join node revived by re-binding its
// inputs alone: its log already held every combination of its module rows,
// so no history was re-joined.
func (c *Counters) AddRevivalRebound() { atomic.AddInt64(&c.revivalRebound, 1) }

// AddMigrationIn records one imported segment (a recovered checkpoint's)
// staged on this engine.
func (c *Counters) AddMigrationIn(rows int64) {
	atomic.AddInt64(&c.migSegsIn, 1)
	atomic.AddInt64(&c.migRowsIn, rows)
}

// AddMigrationRestore counts a staged segment that passed the
// consistency gate and was reinstalled into a node.
func (c *Counters) AddMigrationRestore() { atomic.AddInt64(&c.migRestores, 1) }

// AddMigrationDrop counts a staged segment rejected by the consistency gate
// (corrupt, structurally stale, or racing locally derived state); its node
// re-derives by source replay instead.
func (c *Counters) AddMigrationDrop() { atomic.AddInt64(&c.migDrops, 1) }

// AddBatchFlush records one executor mini-batch flushed downstream: rows is
// the batch occupancy, full marks a flush forced by the batch filling (as
// opposed to the producing cascade ending). Batch counters describe how work
// was grouped, not how much work was done — they are deliberately excluded
// from the semantic work-counter contract the bench trajectory pins.
func (c *Counters) AddBatchFlush(rows int, full bool) {
	atomic.AddInt64(&c.batchFlushes, 1)
	atomic.AddInt64(&c.batchRows, int64(rows))
	if full {
		atomic.AddInt64(&c.batchFull, 1)
	}
	c.batchHist.Observe(rows)
	if c.teeHist != nil {
		c.teeHist.Observe(rows)
		c.teeFlushes.Inc()
		if full {
			c.teeFull.Inc()
		}
	}
}

// BatchOccupancy returns the distribution of rows per flushed executor batch.
func (c *Counters) BatchOccupancy() SizeStats { return c.batchHist.Snapshot() }

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	StreamTime time.Duration
	ProbeTime  time.Duration
	JoinTime   time.Duration

	StreamTuples   int64
	ProbeCalls     int64
	ProbeCacheHits int64
	ProbeTuples    int64
	JoinInserts    int64
	JoinProbes     int64
	ResultsEmitted int64
	ReplayTuples   int64
	SeededRows     int64

	SpillSegsWritten   int64
	SpillRowsWritten   int64
	SpillBytesWritten  int64
	SpillSegsRead      int64
	SpillRowsRead      int64
	SpillBytesRead     int64
	RevivalsFromSpill  int64
	RevivalsFromSource int64
	RevivalsRebound    int64

	MigrationSegsIn   int64
	MigrationRowsIn   int64
	MigrationRestores int64
	MigrationDrops    int64

	BatchFlushes     int64
	BatchRowsFlushed int64
	BatchFullFlushes int64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		StreamTime:     time.Duration(atomic.LoadInt64(&c.streamTimeNS)),
		ProbeTime:      time.Duration(atomic.LoadInt64(&c.probeTimeNS)),
		JoinTime:       time.Duration(atomic.LoadInt64(&c.joinTimeNS)),
		StreamTuples:   atomic.LoadInt64(&c.streamTuples),
		ProbeCalls:     atomic.LoadInt64(&c.probeCalls),
		ProbeCacheHits: atomic.LoadInt64(&c.probeHits),
		ProbeTuples:    atomic.LoadInt64(&c.probeTuples),
		JoinInserts:    atomic.LoadInt64(&c.joinInserts),
		JoinProbes:     atomic.LoadInt64(&c.joinProbes),
		ResultsEmitted: atomic.LoadInt64(&c.resultsEmitted),
		ReplayTuples:   atomic.LoadInt64(&c.replayTuples),
		SeededRows:     atomic.LoadInt64(&c.seededRows),

		SpillSegsWritten:   atomic.LoadInt64(&c.spillSegsOut),
		SpillRowsWritten:   atomic.LoadInt64(&c.spillRowsOut),
		SpillBytesWritten:  atomic.LoadInt64(&c.spillBytesOut),
		SpillSegsRead:      atomic.LoadInt64(&c.spillSegsIn),
		SpillRowsRead:      atomic.LoadInt64(&c.spillRowsIn),
		SpillBytesRead:     atomic.LoadInt64(&c.spillBytesIn),
		RevivalsFromSpill:  atomic.LoadInt64(&c.revivalSpill),
		RevivalsFromSource: atomic.LoadInt64(&c.revivalSource),
		RevivalsRebound:    atomic.LoadInt64(&c.revivalRebound),

		MigrationSegsIn:   atomic.LoadInt64(&c.migSegsIn),
		MigrationRowsIn:   atomic.LoadInt64(&c.migRowsIn),
		MigrationRestores: atomic.LoadInt64(&c.migRestores),
		MigrationDrops:    atomic.LoadInt64(&c.migDrops),

		BatchFlushes:     atomic.LoadInt64(&c.batchFlushes),
		BatchRowsFlushed: atomic.LoadInt64(&c.batchRows),
		BatchFullFlushes: atomic.LoadInt64(&c.batchFull),
	}
}

// TuplesConsumed is Figure 10's work measure: tuples brought into the
// middleware from sources, by streaming or by probing.
func (s Snapshot) TuplesConsumed() int64 { return s.StreamTuples + s.ProbeTuples }

// TotalTime sums the three buckets of Figure 8.
func (s Snapshot) TotalTime() time.Duration { return s.StreamTime + s.ProbeTime + s.JoinTime }

// Add returns the element-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		StreamTime:     s.StreamTime + o.StreamTime,
		ProbeTime:      s.ProbeTime + o.ProbeTime,
		JoinTime:       s.JoinTime + o.JoinTime,
		StreamTuples:   s.StreamTuples + o.StreamTuples,
		ProbeCalls:     s.ProbeCalls + o.ProbeCalls,
		ProbeCacheHits: s.ProbeCacheHits + o.ProbeCacheHits,
		ProbeTuples:    s.ProbeTuples + o.ProbeTuples,
		JoinInserts:    s.JoinInserts + o.JoinInserts,
		JoinProbes:     s.JoinProbes + o.JoinProbes,
		ResultsEmitted: s.ResultsEmitted + o.ResultsEmitted,
		ReplayTuples:   s.ReplayTuples + o.ReplayTuples,
		SeededRows:     s.SeededRows + o.SeededRows,

		SpillSegsWritten:   s.SpillSegsWritten + o.SpillSegsWritten,
		SpillRowsWritten:   s.SpillRowsWritten + o.SpillRowsWritten,
		SpillBytesWritten:  s.SpillBytesWritten + o.SpillBytesWritten,
		SpillSegsRead:      s.SpillSegsRead + o.SpillSegsRead,
		SpillRowsRead:      s.SpillRowsRead + o.SpillRowsRead,
		SpillBytesRead:     s.SpillBytesRead + o.SpillBytesRead,
		RevivalsFromSpill:  s.RevivalsFromSpill + o.RevivalsFromSpill,
		RevivalsFromSource: s.RevivalsFromSource + o.RevivalsFromSource,
		RevivalsRebound:    s.RevivalsRebound + o.RevivalsRebound,

		MigrationSegsIn:   s.MigrationSegsIn + o.MigrationSegsIn,
		MigrationRowsIn:   s.MigrationRowsIn + o.MigrationRowsIn,
		MigrationRestores: s.MigrationRestores + o.MigrationRestores,
		MigrationDrops:    s.MigrationDrops + o.MigrationDrops,

		BatchFlushes:     s.BatchFlushes + o.BatchFlushes,
		BatchRowsFlushed: s.BatchRowsFlushed + o.BatchRowsFlushed,
		BatchFullFlushes: s.BatchFullFlushes + o.BatchFullFlushes,
	}
}
