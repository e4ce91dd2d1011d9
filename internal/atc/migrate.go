package atc

import (
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/state"
)

// Staged segments. Checkpoint recovery is their one producer: a checkpoint
// captures retained plan state as NodeSnapshots (the same structure the §6.3
// disk tier serializes), and a restarted engine's import parks the decoded
// snapshots here as *staged* segments — in memory, keyed by node key, and
// consumed by the exact revival paths — restoreStream / restoreJoin — that
// consume disk segments, behind the exact consistency gate. A staged segment
// that fails the gate is dropped and the node re-derives its state by source
// replay; a checkpoint can waste work, never fabricate it.

// maxStaged bounds the staged-segment table; an oversized checkpoint
// degrades to dropped segments (source replay) rather than unbounded memory.
const maxStaged = 4096

// stagedSeg is one imported segment awaiting revival, with its encoded size
// for the spill-read charge parity with disk revival.
type stagedSeg struct {
	snap  *state.NodeSnapshot
	bytes int
}

// AdvanceEpochTo raises the controller's epoch to at least e (no-op when
// already past). The checkpoint import calls it with the checkpointed
// engine's epoch at capture so every imported row's stamp is strictly
// historical here — the next graft's BumpEpoch exceeds all imported stamps,
// keeping the §6.2 historical/live classification and joinSeeds'
// epoch-based duplicate guard intact without rewriting stamps (relative
// order between imported rows must survive).
func (a *ATC) AdvanceEpochTo(e int) {
	if e > a.epoch {
		a.epoch = e
	}
}

// snapshotNode captures a node's retained state — log rows, stream position,
// access modules, all epoch-stamped — as a NodeSnapshot. Shared by the disk
// spill path (SpillNode) and the checkpoint capture (ExportNode).
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

// ExportNode captures a node's retained state for a checkpoint, or nil when
// the node has no runtime state. The node keeps its state.
func (a *ATC) ExportNode(n *plangraph.Node) *state.NodeSnapshot {
	x, ok := a.execs[n]
	if !ok {
		return nil
	}
	return snapshotNode(n, x)
}

// StageSegment parks an imported segment for revival, reporting whether it was
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
