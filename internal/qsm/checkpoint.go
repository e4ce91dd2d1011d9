package qsm

import (
	"repro/internal/plangraph"
	"repro/internal/state"
)

// Checkpoint capture and import for the crash-recovery tier. A checkpoint
// serializes retained plan state with the spill segment codec; a restarted
// engine stages the decoded segments with the controller, so the normal
// revival paths reinstall them behind the consistency gate. A segment the
// gate rejects is dropped and re-derived by source replay, so a stale or
// damaged checkpoint can only ever waste work, never produce wrong results.
// A staged segment no revival has claimed yet goes into every later
// checkpoint as it was imported, so the engine never publishes a generation
// that holds less than the one it recovered from.

// CheckpointExport serializes the retained state of every quiescent plan
// node WITHOUT discarding anything. The capture runs on the shard's executor
// goroutine between scheduling rounds, so it is a single point in time:
// parent log lengths and module part counts are mutually consistent, which
// is exactly what the import gate's structural checks require. Nodes with
// pending work are skipped (their state is mid-flight and would fail the
// gate anyway); probe nodes carry no checkpointable state. Nothing detaches,
// so consumer edges never block a capture. Staged segments follow, except
// where the capture holds the same key.
func (m *Manager) CheckpointExport() *state.TopicExport {
	exp := &state.TopicExport{Epoch: m.ATC.Epoch()}
	captured := map[string]bool{}
	for _, n := range m.Graph.Nodes() {
		if n.Kind == plangraph.SourceProbe {
			continue
		}
		x, ok := m.ATC.HasExec(n)
		if !ok || x.HasWork() {
			continue
		}
		snap := m.ATC.ExportNode(n)
		if snap == nil {
			continue
		}
		data, rows, err := state.EncodeSegment(snap)
		if err != nil {
			continue
		}
		seg := state.TopicSegment{
			Key: n.Key, ExprKey: n.Expr.Key(), Kind: int(n.Kind),
			StreamPos: snap.StreamPos, Card: -1, Rows: rows, Data: data,
		}
		if n.Kind == plangraph.SourceStream && x.Stream != nil && x.Stream.Exhausted() {
			seg.Card = float64(x.Stream.Len())
		}
		exp.Segments = append(exp.Segments, seg)
		captured[n.Key] = true
	}
	for _, seg := range m.ATC.StagedSegments() {
		if !captured[seg.Key] {
			exp.Segments = append(exp.Segments, seg)
		}
	}
	return exp
}

// ImportSegments decodes and stages a checkpoint, returning how many
// segments were staged and how many were dropped (decode failure, metadata
// mismatch, or refused staging — all of which fall back to source replay).
// Stream segments also install their catalog deltas — streamed prefix and
// exhausted-cardinality — so the optimizer here
// prices the recovered state exactly as the checkpointed engine did and
// picks the same input plans; without that the staged segments would sit
// unconsumed while fresh source reads re-derive everything. If a staged
// stream segment later fails the consume-time gate, the controller's
// SpillLost hook forgets the prefix again.
func (m *Manager) ImportSegments(exp *state.TopicExport) (installed, dropped int) {
	resolve := m.DefaultResolver()
	for _, seg := range exp.Segments {
		snap, err := state.DecodeSegment(seg.Data, resolve)
		if err != nil || snap.Key != seg.Key || snap.Kind != seg.Kind {
			dropped++
			m.ATC.Env.Metrics.AddMigrationDrop()
			continue
		}
		m.ATC.Env.Metrics.AddMigrationIn(int64(snap.RowCount()))
		if !m.ATC.StageSegment(seg, snap) {
			dropped++
			m.ATC.Env.Metrics.AddMigrationDrop()
			continue
		}
		installed++
		if seg.Kind == int(plangraph.SourceStream) {
			m.Cat.RecordStreamed(seg.ExprKey, seg.StreamPos)
			if seg.Card >= 0 {
				m.Cat.RecordExprCard(seg.ExprKey, seg.Card)
			}
		}
	}
	m.ATC.AdvanceEpochTo(exp.Epoch)
	return installed, dropped
}
