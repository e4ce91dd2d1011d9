// Package metrics collects the execution counters the paper's evaluation
// reports: the three-way time breakdown of Figure 8 (stream read time,
// random access time, join time), the total input tuples consumed of
// Figure 10, and per-user-query bookkeeping such as the number of conjunctive
// queries executed (Table 4).
package metrics

import "time"

// Counters aggregates execution work for one plan graph (one ATC). It is
// plain, unsynchronised state: the goroutine that drives the engine owns it,
// and every other reader (the serving layer's /stats, a harness summing
// graphs) reaches it through that goroutine, so a read from anywhere else is
// a data race. Snapshot copies it; Snapshot.Add sums copies across graphs.
type Counters struct {
	s Snapshot
}

// AddStreamRead records one streaming-source read of duration d.
func (c *Counters) AddStreamRead(d time.Duration) {
	c.s.StreamTime += d
	c.s.StreamTuples++
}

// AddProbe records one remote random-access probe returning n tuples.
func (c *Counters) AddProbe(d time.Duration, n int) {
	c.s.ProbeTime += d
	c.s.ProbeCalls++
	c.s.ProbeTuples += int64(n)
}

// AddProbeCacheHit records a probe served from the middleware probe cache.
func (c *Counters) AddProbeCacheHit() { c.s.ProbeCacheHits++ }

// AddJoin records in-memory join work of duration d.
func (c *Counters) AddJoin(d time.Duration) { c.s.JoinTime += d }

// AddJoinInsert counts an access-module insert.
func (c *Counters) AddJoinInsert() { c.s.JoinInserts++ }

// AddJoinProbe counts an access-module probe.
func (c *Counters) AddJoinProbe() { c.s.JoinProbes++ }

// AddResult counts a result row delivered to a user.
func (c *Counters) AddResult() { c.s.ResultsEmitted++ }

// AddReplayTuple counts a tuple re-processed from saved state (§6.2); replay
// does not count toward tuples consumed — that is precisely the reuse saving
// Figure 10 measures.
func (c *Counters) AddReplayTuple() { c.s.ReplayTuples++ }

// AddSeededRows counts pre-epoch log rows handed to a newly attached
// endpoint (§6.2): results the graph computed before the query arrived,
// shared without re-deriving or re-reading them.
func (c *Counters) AddSeededRows(n int) { c.s.SeededRows += int64(n) }

// AddSeedPulled counts seeded rows an endpoint's cursor materialised —
// projected, scored and buffered — because they could be the next answer.
// Seeded rows never pulled cost their endpoint nothing.
func (c *Counters) AddSeedPulled(n int) { c.s.SeedPulled += int64(n) }

// AddSpillWrite records one evicted plan segment serialized to the disk
// tier (§6.3 spill): rows and bytes written.
func (c *Counters) AddSpillWrite(rows, bytes int64) {
	c.s.SpillSegsWritten++
	c.s.SpillRowsWritten += rows
	c.s.SpillBytesWritten += bytes
}

// AddSpillRead records one spilled segment read back during revival. Spill
// reads are local I/O, not source work: they count toward neither
// TuplesConsumed nor ReplayTuples.
func (c *Counters) AddSpillRead(rows, bytes int64) {
	c.s.SpillSegsRead++
	c.s.SpillRowsRead += rows
	c.s.SpillBytesRead += bytes
}

// AddRevivalFromSpill counts a re-created node whose state came back from
// the disk tier.
func (c *Counters) AddRevivalFromSpill() { c.s.RevivalsFromSpill++ }

// AddRevivalFromSource counts a re-created node that had been evicted with
// no spill segment, so its state is re-derived by fresh source reads.
func (c *Counters) AddRevivalFromSource() { c.s.RevivalsFromSource++ }

// AddRevivalRebound counts a parked join node revived by re-binding its
// inputs alone: its log already held every combination of its module rows,
// so no history was re-joined.
func (c *Counters) AddRevivalRebound() { c.s.RevivalsRebound++ }

// AddMigrationIn records one imported segment (a recovered checkpoint's)
// staged on this engine.
func (c *Counters) AddMigrationIn(rows int64) {
	c.s.MigrationSegsIn++
	c.s.MigrationRowsIn += rows
}

// AddMigrationRestore counts a staged segment that passed the
// consistency gate and was reinstalled into a node.
func (c *Counters) AddMigrationRestore() { c.s.MigrationRestores++ }

// AddMigrationDrop counts a staged segment rejected by the consistency gate
// (corrupt, structurally stale, or racing locally derived state); its node
// re-derives by source replay instead.
func (c *Counters) AddMigrationDrop() { c.s.MigrationDrops++ }

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
	SeedPulled     int64

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
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() Snapshot { return c.s }

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
		SeedPulled:     s.SeedPulled + o.SeedPulled,

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
	}
}
