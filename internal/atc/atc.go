// Package atc implements the paper's execution coordinator (§4.2): the
// module that "looks across" every rank-merge operator's thresholds and
// decides, round-robin, which source to read next, routing each fetched tuple
// through split operators into all consuming m-joins, fully pipelined.
//
// The ATC also owns the runtime side of §6.3's unlinking: when a conjunctive
// query completes or is pruned, its endpoint is detached and the plan segment
// feeding only that query is parked — execution bindings are removed
// backwards until a split operator (a node with other live consumers) is
// reached — while all state (logs, modules, stream positions) is retained for
// reuse. Reviving a parked or freshly grafted segment tops its modules up
// from upstream logs and, unless the segment was parked whole and missed
// nothing, recovers its historical outputs (Algorithm 2's bulk form; see
// DESIGN.md).
package atc

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/remotedb"
	"repro/internal/source"
	"repro/internal/state"
)

// maxEvictedKeys caps the revival-classification key set (see DropExec).
const maxEvictedKeys = 8192

// MergeState tracks one user query's rank-merge within the controller.
type MergeState struct {
	RM *operator.RankMerge
	// Arrival is the user query's (virtual) submission time.
	Arrival time.Duration
	// Finished is when the rank-merge completed; valid when Done.
	Finished time.Duration
	Done     bool
	// Canceled marks a merge abandoned by its caller before completion; its
	// partial results are not meaningful.
	Canceled bool
	// Err records an execution failure (a scheduling round that did not
	// converge, or a panic recovered from an operator while driving this
	// merge). A failed merge is Done with no meaningful results; the serving
	// layer turns it into a failed search response instead of letting it
	// take down the process.
	Err error
}

// Latency returns the user query's response time.
func (m *MergeState) Latency() time.Duration { return m.Finished - m.Arrival }

// attachment records where a CQ's sink is wired, for unlinking.
type attachment struct {
	node *operator.NodeExec
	sink *operator.EndpointSink
}

// ATC coordinates one plan graph. It is not safe for concurrent use: one
// goroutine drives a controller, and an engine wanting more cores runs more
// controllers (the serving layer's shards, the paper's ATC-CL).
type ATC struct {
	Graph *plangraph.Graph
	Env   *operator.Env
	Fleet *remotedb.Fleet

	epoch  int
	execs  map[*plangraph.Node]*operator.NodeExec
	ras    map[*plangraph.Node]*source.RandomAccess
	merges []*MergeState
	// active holds the unfinished merges; RunRound iterates it and compacts
	// out completed entries so long-lived sessions don't rescan history.
	active []*MergeState
	byUQ   map[string]*MergeState // user-query id -> merge state
	attach map[string]attachment  // by CQ id

	// driveBound, when positive, overrides the defensive per-round step
	// bound (SetDriveBound; tests only).
	driveBound int
	// quantum, when positive, overrides readQuantum (tests only, through
	// export_test.go).
	quantum int
	// forceRecover makes every revive re-join its history, the reference
	// the re-bind shortcut is tested against (tests only, through
	// export_test.go).
	forceRecover bool

	// ledger, when bound, accounts every exec's and endpoint's resident
	// state incrementally (§6.3); spill, when bound, is the disk tier evicted
	// segments serialize to and revival restores from. Both are bound once by
	// the query state manager before any exec exists.
	ledger *state.Ledger
	spill  *state.Spill
	// SpillLost, when set, is told the expression key of a stream whose
	// spill segment turned out unrestorable: its retained prefix is gone for
	// real, so the state manager must drop the catalog's buffered-prefix
	// accounting the spill had been allowed to keep.
	SpillLost func(exprKey string)
	// evictedKeys remembers node keys whose state was dropped, so a later
	// re-creation can be classified as a revival from spill or from source
	// replay (the shared-fraction split the serving stats report).
	evictedKeys map[string]bool
	// staged holds imported checkpoint segments awaiting revival
	// (staged.go); takeSegment hands them out ahead of the disk tier.
	staged map[string]stagedSeg

	// dirty lists the source-stream execs marked CatalogDirty since the last
	// DrainDirty; streams indexes the live ones by expression key, for
	// MarkExpr.
	dirty   []*operator.NodeExec
	streams map[string][]*operator.NodeExec
}

// New creates a controller for a plan graph.
func New(g *plangraph.Graph, env *operator.Env, fleet *remotedb.Fleet) *ATC {
	return &ATC{
		Graph:       g,
		Env:         env,
		Fleet:       fleet,
		epoch:       0,
		execs:       map[*plangraph.Node]*operator.NodeExec{},
		ras:         map[*plangraph.Node]*source.RandomAccess{},
		byUQ:        map[string]*MergeState{},
		attach:      map[string]attachment{},
		evictedKeys: map[string]bool{},
		streams:     map[string][]*operator.NodeExec{},
	}
}

// BindState attaches the execution-state subsystem: the accounting ledger
// (required for budget enforcement) and the optional spill tier. Must be
// called before any exec is created.
func (a *ATC) BindState(ledger *state.Ledger, spill *state.Spill) {
	a.ledger = ledger
	a.spill = spill
}

// Close releases nothing: a controller owns no goroutines or files (the
// state manager closes the spill tier).
//
// Deprecated: kept only because the benchmark module calls it.
func (a *ATC) Close() {}

// Epoch returns the current epoch (§6.2's logical timestamp).
func (a *ATC) Epoch() int { return a.epoch }

// BumpEpoch starts a new epoch (called by the state manager at each graft).
func (a *ATC) BumpEpoch() int {
	a.epoch++
	return a.epoch
}

// Merges returns the controller's rank-merge states in admission order.
func (a *ATC) Merges() []*MergeState { return a.merges }

// MergeByUQ returns the merge state for a user query id, or nil.
func (a *ATC) MergeByUQ(uqID string) *MergeState { return a.byUQ[uqID] }

// AddMerge registers a user query's rank-merge.
func (a *ATC) AddMerge(rm *operator.RankMerge, arrival time.Duration) *MergeState {
	m := &MergeState{RM: rm, Arrival: arrival}
	a.merges = append(a.merges, m)
	a.active = append(a.active, m)
	a.byUQ[rm.UQ.ID] = m
	return m
}

// CancelMerge abandons an unfinished user query: its rank-merge is marked
// done, and every conjunctive query it was driving is unlinked so the plan
// segments feeding only it are parked (state retained for reuse, §6.3).
// Canceling a finished or unknown query is a no-op.
func (a *ATC) CancelMerge(uqID string) {
	m := a.byUQ[uqID]
	if m == nil || m.Done {
		return
	}
	m.Done = true
	m.Canceled = true
	m.Finished = a.Env.Clock.Now()
	for _, e := range m.RM.Entries {
		a.UnlinkCQ(e.CQ.ID)
	}
}

// Forget drops a completed user query from the controller's bookkeeping so a
// long-running session does not accumulate per-query history. The experiment
// drivers never call this — they read Merges() afterwards; the serving layer
// calls it once a result has been dispatched.
func (a *ATC) Forget(uqID string) {
	m := a.byUQ[uqID]
	if m == nil || !m.Done {
		return
	}
	delete(a.byUQ, uqID)
	for i, mm := range a.merges {
		if mm == m {
			a.merges = append(a.merges[:i], a.merges[i+1:]...)
			break
		}
	}
	// Also drop it from the active list: compaction only happens inside
	// RunRound, which an idle session may not reach again.
	for i, mm := range a.active {
		if mm == m {
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
}

// Exec returns (creating on demand) the runtime state for a plan node,
// opening its remote source if it is a source node.
func (a *ATC) Exec(n *plangraph.Node) (*operator.NodeExec, error) {
	if x, ok := a.execs[n]; ok {
		x.SyncInputs()
		return x, nil
	}
	x := operator.NewNodeExec(n)
	if a.ledger != nil {
		x.SetAccount(a.ledger.NewAccount(n.Key))
	}
	switch n.Kind {
	case plangraph.SourceStream:
		db, err := a.Fleet.DB(n.DB)
		if err != nil {
			return nil, err
		}
		st, err := source.OpenStream(db, n.Expr)
		if err != nil {
			return nil, err
		}
		x.Stream = st
		a.restoreStream(n, x)
		// Created, or revived after an eviction with its prefix restored: the
		// catalog may not hold this stream's position (a discard forgot it).
		a.markDirty(x)
		key := n.Expr.Key()
		a.streams[key] = append(a.streams[key], x)
	case plangraph.SourceProbe:
		db, err := a.Fleet.DB(n.DB)
		if err != nil {
			return nil, err
		}
		ra := source.OpenRandomAccess(db, n.Expr)
		a.ras[n] = ra
	}
	x.SetRAResolver(func(pn *plangraph.Node) *source.RandomAccess { return a.ras[pn] })
	a.execs[n] = x
	return x, nil
}

// restoreStream reinstalls a re-created stream source's retained state from
// a staged or spilled segment: the stream skips its already-delivered prefix
// and the log gets its rows back with their original epoch stamps, all
// charged as local spill I/O rather than remote stream reads (§6.3 disk
// tier).
func (a *ATC) restoreStream(n *plangraph.Node, x *operator.NodeExec) {
	seg, ok := a.takeSegment(n.Key)
	if ok && (seg.snap == nil || seg.snap.Kind != int(plangraph.SourceStream) || seg.snap.StreamPos > x.Stream.Len()) {
		// The segment does not match this shard's view of the source: the
		// retained prefix is truly lost, so the catalog must stop pricing it
		// as buffered.
		a.dropSegment(seg)
		if a.SpillLost != nil {
			a.SpillLost(n.Expr.Key())
		}
		ok = false
	}
	if !ok {
		a.noteSourceRevival(n.Key)
		return
	}
	x.Stream.Skip(seg.snap.StreamPos)
	x.ImportLog(seg.snap.LogRows, seg.snap.LogEpochs)
	a.restored(n.Key, seg)
}

// noteSourceRevival classifies the re-creation of a previously evicted node
// whose state was not recoverable from spill: its history will be re-derived
// by fresh source work.
func (a *ATC) noteSourceRevival(key string) {
	if a.evictedKeys[key] {
		delete(a.evictedKeys, key)
		a.Env.Metrics.AddRevivalFromSource()
	}
}

// HasExec reports whether runtime state exists for the node (used by the
// state manager's memory accounting without forcing source opens).
func (a *ATC) HasExec(n *plangraph.Node) (*operator.NodeExec, bool) {
	x, ok := a.execs[n]
	return x, ok
}

// DropExec discards a node's runtime state (eviction, §6.3), releasing its
// ledger account and remembering the key so a later re-creation is
// classified as a revival.
func (a *ATC) DropExec(n *plangraph.Node) {
	if x, ok := a.execs[n]; ok {
		a.ledger.Release(x.Account())
		// The key set only feeds the revival-classification metric; bound it
		// so a long-lived server with an ever-diverse query stream cannot
		// grow it without limit (classification turns best-effort past the
		// cap).
		if len(a.evictedKeys) >= maxEvictedKeys {
			a.evictedKeys = map[string]bool{}
		}
		a.evictedKeys[n.Key] = true
		if x.Stream != nil {
			key := n.Expr.Key()
			a.streams[key] = slices.DeleteFunc(a.streams[key], func(y *operator.NodeExec) bool { return y == x })
			if len(a.streams[key]) == 0 {
				delete(a.streams, key)
			}
		}
	}
	delete(a.execs, n)
	delete(a.ras, n)
}

// markDirty puts a source-stream exec on the dirty list.
func (a *ATC) markDirty(x *operator.NodeExec) {
	if !x.CatalogDirty && x.Stream != nil {
		x.CatalogDirty = true
		a.dirty = append(a.dirty, x)
	}
}

// MarkExpr marks every live stream exec of an expression dirty. The state
// manager calls it when it forgets the expression's streamed count, so
// streams of the same expression in other scopes record theirs again.
func (a *ATC) MarkExpr(exprKey string) {
	for _, x := range a.streams[exprKey] {
		a.markDirty(x)
	}
}

// DrainDirty calls fn for every stream exec marked since the last drain that
// is still live — still the exec of a node still in the graph, which is what
// a walk of the graph would visit — and clears the marks. An exec is marked
// when it is created (a revival after eviction creates a new one), when a
// read moves its position or finds it exhausted, and by MarkExpr.
func (a *ATC) DrainDirty(fn func(*operator.NodeExec)) {
	for i, x := range a.dirty {
		x.CatalogDirty = false
		if a.execs[x.Node] == x && a.Graph.Node(x.Node.Key) == x.Node {
			fn(x)
		}
		a.dirty[i] = nil
	}
	a.dirty = a.dirty[:0]
}

// SpillNode serializes a node's retained state — log rows, stream position,
// access modules, all epoch-stamped — to the disk tier, reporting whether a
// segment was written. The caller evicts the node afterwards either way;
// with a segment on disk the next revival of the same expression restores
// instead of re-paying source reads.
func (a *ATC) SpillNode(n *plangraph.Node) bool {
	if a.spill == nil {
		return false
	}
	x, ok := a.execs[n]
	if !ok {
		return false
	}
	snap := snapshotNode(n, x)
	rows, bytes, err := a.spill.Write(snap)
	if err != nil {
		// Local disk failed; fall back to discard eviction.
		return false
	}
	a.Env.Metrics.AddSpillWrite(int64(rows), bytes)
	return true
}

// Revive brings a node fully live for the given epoch: parents are revived
// first, each module is topped up with rows the node missed while parked (or
// never saw, if freshly grafted), the node's historical outputs are recovered
// into its log, and the parents are bound to it again. It returns the node's
// exec.
//
// Recovery re-joins every row of the driving module, so it runs only when
// the log can be missing a combination: the exec is new, its state was
// restored from a spill or staged segment, or the top-up added a row. A
// node parked with complete history whose modules gained nothing still logs
// every combination of its module rows — parking touches neither — so it
// is only re-bound, at no join work.
func (a *ATC) Revive(n *plangraph.Node, epoch int) (*operator.NodeExec, error) {
	x, err := a.Exec(n)
	if err != nil {
		return nil, err
	}
	if n.Kind != plangraph.Join {
		// Sources are always consistent: their log mirrors their reads.
		return x, nil
	}
	if x.HistoryComplete && a.liveAndCurrent(x) {
		return x, nil
	}
	// Parents first (recursively restoring their own spilled state), so a
	// spilled segment for this node can be checked against live parent logs.
	for _, e := range n.Inputs {
		if e.Probe {
			// Random-access inputs have no stream history to replay; probes
			// re-fetch (cached) on demand.
			if _, err := a.Exec(e.From); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := a.Revive(e.From, epoch); err != nil {
			return nil, err
		}
	}
	restored := a.restoreJoin(n, x)
	recover := restored || !x.HistoryComplete || a.forceRecover
	for _, e := range n.Inputs {
		if e.Probe {
			continue
		}
		px := a.execs[e.From]
		// Top up this module with the parent's logged rows it has missed.
		have := x.Module(e.InputIdx).Len()
		rows, epochs := px.Log.RowsFrom(have)
		x.PreloadModule(e.InputIdx, rows, epochs)
		recover = recover || len(rows) > 0
	}
	if recover {
		x.RecoverHistory(a.Env, epoch)
	} else {
		a.Env.Metrics.AddRevivalRebound()
	}
	// Re-establish live bindings parent -> node.
	for _, e := range n.Inputs {
		px := a.execs[e.From]
		px.AddConsumer(e, x)
	}
	x.HistoryComplete = true
	return x, nil
}

// restoreJoin reinstalls a re-grafted join node's retained state — module
// rows and output log, original epoch stamps — from a staged or spilled
// segment. The gate: the node must be empty (state derived since the
// capture makes the segment stale), and the segment must match the new
// graft's input partition (producer keys, atom maps, probe flags, in order)
// with no parent log shorter than the module rows it once fed. A mismatch
// (the optimizer re-partitioned the expression, or a parent was discarded
// and restarted) drops the segment and falls back to normal revival;
// reinstalling across it would fabricate or duplicate join state. It
// reports whether a segment was reinstalled.
func (a *ATC) restoreJoin(n *plangraph.Node, x *operator.NodeExec) bool {
	live := x.Log.Len() > 0 || x.StateSize() > 0
	if _, staged := a.staged[n.Key]; live && !staged {
		// A spilled segment stays on disk for a revival that finds the node
		// empty; a staged one is dropped below.
		return false
	}
	seg, ok := a.takeSegment(n.Key)
	if ok && (live || seg.snap == nil || !a.joinSnapshotConsistent(n, seg.snap)) {
		a.dropSegment(seg)
		ok = false
	}
	if !ok {
		a.noteSourceRevival(n.Key)
		return false
	}
	for i := range seg.snap.Modules {
		x.ImportModuleRows(i, seg.snap.Modules[i].Parts, seg.snap.Modules[i].Epochs)
	}
	x.ImportLog(seg.snap.LogRows, seg.snap.LogEpochs)
	a.restored(n.Key, seg)
	return true
}

// joinSnapshotConsistent verifies a join segment still matches the
// node's current input structure and its parents' logs.
func (a *ATC) joinSnapshotConsistent(n *plangraph.Node, snap *state.NodeSnapshot) bool {
	if snap.Kind != int(plangraph.Join) || len(snap.Modules) != len(n.Inputs) {
		return false
	}
	for i, e := range n.Inputs {
		m := &snap.Modules[i]
		if m.ProducerKey != e.From.Key || m.Probe != e.Probe || !slices.Equal(m.Coverage, e.AtomMap) {
			return false
		}
		if !e.Probe {
			px, ok := a.execs[e.From]
			if !ok || px.Log.Len() < len(m.Parts) {
				return false
			}
		}
	}
	nAtoms := len(n.Expr.Atoms)
	for _, r := range snap.LogRows {
		if r.Arity() != nAtoms {
			return false
		}
	}
	for i := range snap.Modules {
		for _, ps := range snap.Modules[i].Parts {
			if len(ps) != nAtoms {
				return false
			}
		}
	}
	return true
}

// liveAndCurrent reports whether every input still feeds x and every
// streamed input's module holds its parent's whole log. Parking unbinds a node's inputs, so a
// parked node fails this even when its history is complete.
func (a *ATC) liveAndCurrent(x *operator.NodeExec) bool {
	for _, e := range x.Node.Inputs {
		px, ok := a.execs[e.From]
		if !ok || !px.Feeds(e) {
			return false
		}
		if !e.Probe && x.Module(e.InputIdx).Len() < px.Log.Len() {
			return false
		}
	}
	return true
}

// AttachCQ wires a conjunctive query's endpoint sink to its terminal node.
func (a *ATC) AttachCQ(cqID string, node *operator.NodeExec, sink *operator.EndpointSink) {
	node.AddSink(sink)
	a.attach[cqID] = attachment{node: node, sink: sink}
}

// UnlinkCQ detaches a finished or pruned conjunctive query (§6.3) and parks
// the plan segment that fed only it.
func (a *ATC) UnlinkCQ(cqID string) {
	at, ok := a.attach[cqID]
	if !ok {
		return
	}
	delete(a.attach, cqID)
	a.Graph.RemoveEndpoint(cqID)
	at.node.RemoveSink(at.sink)
	// The detached sink receives no further offers: close its ledger account
	// (remaining buffered candidates stay eligible for emission but are no
	// longer resident state the budget can reclaim) and release its entry's
	// duplicate-elimination set (§6.3).
	a.ledger.Release(at.sink.Entry.Account())
	at.sink.Entry.DropSeen()
	a.park(at.node)
}

// Attached returns how many conjunctive queries currently have an endpoint
// sink wired to the graph. Served-and-forgotten queries must not linger here.
func (a *ATC) Attached() int { return len(a.attach) }

// SinkStateRows reports the resident state of all attached rank-merge
// endpoints — buffered candidates plus duplicate-set entries — for the §6.3
// memory accounting. Unlinked CQs have already released both.
func (a *ATC) SinkStateRows() int {
	n := 0
	for _, at := range a.attach {
		n += at.sink.Entry.BufferLen() + at.sink.Entry.SeenLen()
	}
	return n
}

// park removes execution bindings backwards from a workless node until a
// split (a node with remaining live consumers or sinks) is reached. State is
// retained, modules and log alike, so HistoryComplete keeps its meaning: a
// future revive tops the node up and re-joins only if the top-up added rows.
func (a *ATC) park(x *operator.NodeExec) {
	if x.HasWork() || x.Node.Kind != plangraph.Join {
		return
	}
	// A parked node runs no cascades until revival: hand its pooled scratch
	// (free-listed part vectors, batch buffers) back and settle the ledger's
	// scratch dimension so idle segments hold no hidden memory.
	x.ReleaseScratch()
	for _, e := range x.Node.Inputs {
		px, ok := a.execs[e.From]
		if !ok {
			continue
		}
		px.RemoveConsumerEdge(e)
		a.park(px)
	}
}

// RunRound performs one round-robin pass (§4.2) with no horizon; see
// RunRoundUntil.
func (a *ATC) RunRound() bool { return a.RunRoundUntil(noHorizon) }

// noHorizon is the horizon of a round the caller does not need to stop at
// any virtual instant.
const noHorizon = time.Duration(math.MaxInt64)

// RunRoundUntil performs one round-robin pass (§4.2): every unfinished
// rank-merge advances — emitting and activating freely — until it either
// performs one (blocking) source read or finishes. Reading from each
// operator's preferred stream once per round "has the same outcome as a
// voting strategy where the input stream with the highest number of tuple
// requests gets read the most" and prevents source starvation (§4.2). It
// reports whether any merge is still unfinished. Merges advance in admission
// order.
//
// A merge that is alone in the round keeps reading, up to readQuantum reads,
// while the virtual clock is before horizon: with no other merge to starve,
// a round of Q reads is the same sequence of Advance and ReadOne calls as Q
// rounds of one, so answers, their stamps and the source work are unchanged
// and only the caller regains control less often. The horizon lets a caller
// that must act at a virtual instant (a batch release) stop where one-read
// rounds would have stopped.
func (a *ATC) RunRoundUntil(horizon time.Duration) bool {
	quantum := 1
	if len(a.active) == 1 {
		quantum = a.readQuantum()
	}
	live := a.active[:0]
	for _, m := range a.active {
		if m.Done {
			continue
		}
		a.driveMerge(m, quantum, horizon)
		if !m.Done {
			live = append(live, m)
		}
	}
	// Zero the compacted tail so finished merges can be collected.
	for i := len(live); i < len(a.active); i++ {
		a.active[i] = nil
	}
	a.active = live
	return len(a.active) > 0
}

// driveMergeMaxSteps defensively bounds the steps one merge takes to reach a
// read.
const driveMergeMaxSteps = 1 << 22

// readQuantum caps the reads a lone merge performs in one round.
const readQuantum = 64

func (a *ATC) readQuantum() int {
	if a.quantum > 0 {
		return a.quantum
	}
	return readQuantum
}

// SetDriveBound overrides the defensive per-round step bound (<= 0 restores
// the default). It exists so tests can exercise the non-convergence failure
// path deterministically; production code never needs it.
func (a *ATC) SetDriveBound(n int) { a.driveBound = n }

func (a *ATC) driveLimit() int {
	if a.driveBound > 0 {
		return a.driveBound
	}
	return driveMergeMaxSteps
}

// driveMerge advances one rank-merge until it has read quantum tuples, the
// clock has reached horizon after a read, or it finishes. A round that does
// not converge — or an operator panic — fails the merge instead of taking
// down the process: the error lands in MergeState.Err and the serving layer
// returns it as a failed search.
func (a *ATC) driveMerge(m *MergeState, quantum int, horizon time.Duration) {
	if err := a.advanceMerge(m, quantum, horizon); err != nil {
		a.failMerge(m, err)
	}
}

// advanceMerge is driveMerge's happy path; it converts panics from the
// operator stack into errors so a poisoned query cannot kill the goroutine
// driving the controller.
//
// RunRoundUntil passes a quantum above one only to a merge that is alone in
// the round, so §4.2's one read per operator per round still holds whenever
// another merge could be starved. Every read is preceded by RankMerge.Advance
// and its threshold test, exactly as at the start of a fresh round, and the
// read that reaches horizon ends the round as it would end the last one-read
// round a caller runs before that instant: the reads, their order and the
// virtual clock are those of quantum one-read rounds.
func (a *ATC) advanceMerge(m *MergeState, quantum int, horizon time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("atc: driving %s: panic: %v", m.RM.UQ.ID, r)
		}
	}()
	env := a.Env
	limit := a.driveLimit()
	reads := 0
	for i := 0; i < limit; i++ {
		step := m.RM.Advance(env)
		switch step.Kind {
		case operator.StepDone:
			m.Done = true
			m.Finished = env.Clock.Now()
			for _, e := range m.RM.Entries {
				a.UnlinkCQ(e.CQ.ID)
			}
			return nil
		case operator.StepEmitted:
			for _, id := range step.PrunedCQs {
				a.UnlinkCQ(id)
			}
		case operator.StepActivated:
			// Bookkeeping only; continue advancing.
		case operator.StepRead:
			a.markDirty(step.Source)
			if step.Source.ReadOne(env, a.epoch) {
				reads++
				if reads >= quantum || env.Clock.Now() >= horizon {
					return nil
				}
				i = -1 // the step bound is per read, as in a one-read round
				continue
			}
			// Exhausted: let the merge reclassify and pick again.
		}
	}
	return fmt.Errorf("atc: scheduling round did not converge for %s after %d steps",
		m.RM.UQ.ID, limit)
}

// failMerge marks a merge failed and parks whatever of its plan segments can
// still be detached cleanly.
func (a *ATC) failMerge(m *MergeState, err error) {
	m.Err = err
	m.Done = true
	m.Finished = a.Env.Clock.Now()
	// Best-effort unlink: the failure may have left operator state
	// inconsistent, and cleanup must not re-panic. Each entry is
	// recovered individually so one poisoned segment cannot strand the
	// remaining entries' attachments, sinks and ledger accounts.
	for _, e := range m.RM.Entries {
		a.unlinkRecovering(e.CQ.ID)
	}
}

// unlinkRecovering is UnlinkCQ with panics contained to the one entry.
func (a *ATC) unlinkRecovering(cqID string) {
	defer func() { _ = recover() }()
	a.UnlinkCQ(cqID)
}

// AllDone reports whether every admitted user query has finished.
func (a *ATC) AllDone() bool {
	for _, m := range a.active {
		if !m.Done {
			return false
		}
	}
	return true
}
