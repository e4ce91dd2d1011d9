package atc

import (
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/state"
)

// Live topic migration (distributed serving tier). A migrating topic's
// retained plan segments leave the source shard as NodeSnapshots (the same
// structure the §6.3 disk tier serializes), travel encoded, and arrive here
// as *staged* segments: parked in memory, keyed by node key, and consumed by
// the exact revival paths — restoreStream / restoreJoin — that consume disk
// segments, behind the exact consistency gate. A staged segment that fails
// the gate is dropped and the node re-derives its state by source replay;
// migration can waste work, never fabricate it. Which segments a topic owns
// is read off its merges' footprints: the plan-graph nodes each merge can
// touch, captured once at admission.

// maxStaged bounds the staged-segment table; a runaway migrator degrades to
// dropped handoffs (source replay) rather than unbounded memory.
const maxStaged = 4096

// stagedSeg is one migrated segment awaiting revival, with its wire size for
// the spill-read charge parity with disk revival.
type stagedSeg struct {
	snap  *state.NodeSnapshot
	bytes int
}

// mergeFootprint walks the plan segments feeding a rank-merge and returns
// the keys of every node its execution can touch: the input-edge closure of
// each CQ's terminal node, plus each entry's threshold-group sources (always
// inside that closure for well-formed plans; included defensively).
func (a *ATC) mergeFootprint(rm *operator.RankMerge) []string {
	seen := map[*plangraph.Node]bool{}
	var keys []string
	var walk func(n *plangraph.Node)
	walk = func(n *plangraph.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		keys = append(keys, n.Key)
		for _, e := range n.Inputs {
			walk(e.From)
		}
	}
	for _, e := range rm.Entries {
		if at, ok := a.attach[e.CQ.ID]; ok {
			walk(at.node.Node)
		}
	}
	for _, e := range rm.Entries {
		for _, g := range e.Groups {
			walk(g.Source.Node)
		}
	}
	return keys
}

// MergeNodeKeys returns a copy of a merge's captured footprint (tests and
// diagnostics), or nil for an unknown user query.
func (a *ATC) MergeNodeKeys(uqID string) []string {
	m := a.byUQ[uqID]
	if m == nil {
		return nil
	}
	return m.Footprint()
}

// Footprint returns the merge's plan-graph node keys (captured at admission,
// immutable). The serving layer uses it to map a topic to the plan segments a
// migration must carry.
func (m *MergeState) Footprint() []string {
	return append([]string(nil), m.nodeKeys...)
}

// AdvanceEpochTo raises the controller's epoch to at least e (no-op when
// already past). Importers call it with the source engine's epoch at export so
// every migrated row's stamp is strictly historical here — the next graft's
// BumpEpoch exceeds all imported stamps, keeping the §6.2 historical/live
// classification and joinSeeds' epoch-based duplicate guard intact without
// rewriting stamps (relative order between imported rows must survive).
func (a *ATC) AdvanceEpochTo(e int) {
	if e > a.epoch {
		a.epoch = e
	}
}

// snapshotNode captures a node's retained state — log rows, stream position,
// access modules, all epoch-stamped — as a NodeSnapshot. Shared by the disk
// spill path (SpillNode) and the migration export path (ExportNode).
func snapshotNode(n *plangraph.Node, x *operator.NodeExec) *state.NodeSnapshot {
	snap := &state.NodeSnapshot{Key: n.Key, Kind: int(n.Kind)}
	if x.Stream != nil {
		snap.StreamPos = x.Stream.Pos()
	}
	snap.LogRows, snap.LogEpochs = x.Log.Export()
	if n.Kind == plangraph.Join {
		snap.Modules = make([]state.ModuleSnapshot, len(n.Inputs))
		for i, e := range n.Inputs {
			parts, epochs := x.Module(i).Export()
			snap.Modules[i] = state.ModuleSnapshot{
				ProducerKey: e.From.Key,
				Coverage:    append([]int(nil), e.AtomMap...),
				Probe:       e.Probe,
				Parts:       parts,
				Epochs:      epochs,
			}
		}
	}
	return snap
}

// ExportNode captures a node's retained state for migration, or nil when the
// node has no runtime state. The caller discards the node afterwards (the
// state now lives on the target shard) — via DropExec, not SpillNode, so the
// same rows never exist in both the migration stream and the disk tier.
func (a *ATC) ExportNode(n *plangraph.Node) *state.NodeSnapshot {
	x, ok := a.execs[n]
	if !ok {
		return nil
	}
	return snapshotNode(n, x)
}

// StageSegment parks a migrated segment for revival, reporting whether it was
// accepted. Staging refuses segments that could never be consumed or could
// conflict with live state: a stream node whose exec already exists had its
// one restore chance at exec creation, and any node with resident rows must
// keep them (the segment is stale relative to what the shard derived itself).
// A refused segment is simply not installed; the caller counts it dropped and
// the state re-derives from sources.
func (a *ATC) StageSegment(snap *state.NodeSnapshot, bytes int) bool {
	if snap == nil || len(a.staged) >= maxStaged {
		return false
	}
	if n := a.Graph.Node(snap.Key); n != nil {
		if x, ok := a.execs[n]; ok {
			if snap.Kind == int(plangraph.SourceStream) {
				return false
			}
			if x.Log.Len() > 0 || x.StateSize() > 0 {
				return false
			}
		}
	}
	if a.staged == nil {
		a.staged = map[string]stagedSeg{}
	}
	a.staged[snap.Key] = stagedSeg{snap: snap, bytes: bytes}
	return true
}

// takeStaged claims (removing) the staged segment for a node key.
func (a *ATC) takeStaged(key string) (stagedSeg, bool) {
	seg, ok := a.staged[key]
	if ok {
		delete(a.staged, key)
	}
	return seg, ok
}

// Staged reports how many migrated segments are parked awaiting revival.
func (a *ATC) Staged() int { return len(a.staged) }
