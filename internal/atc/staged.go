package atc

import (
	"slices"
	"strings"

	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/state"
)

// Staged segments. Checkpoint recovery is their one producer: a checkpoint
// captures retained plan state as NodeSnapshots (the same structure the §6.3
// disk tier serializes), and a restarted engine's import parks the decoded
// snapshots here as *staged* segments — in memory, keyed by node key. A
// revival claims a node's segment through takeSegment, which tries this
// table before the disk tier, so both origins pass the one consistency gate
// in restoreStream / restoreJoin. A segment that fails the gate is dropped
// and the node re-derives its state by source replay; a checkpoint can
// waste work, never fabricate it. Until a revival claims it, a staged
// segment rides along in every checkpoint the engine takes.

// maxStaged bounds the staged-segment table; an oversized checkpoint
// degrades to dropped segments (source replay) rather than unbounded memory.
const maxStaged = 4096

// stagedSeg is one imported segment awaiting revival: the checkpoint entry
// it arrived as, bytes included, and its decoded snapshot. A checkpoint taken
// before the revival carries the entry forward unchanged.
type stagedSeg struct {
	seg  state.TopicSegment
	snap *state.NodeSnapshot
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
			parts, epochs := x.Module(i).Export(len(n.Expr.Atoms))
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
func (a *ATC) StageSegment(seg state.TopicSegment, snap *state.NodeSnapshot) bool {
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
	a.staged[snap.Key] = stagedSeg{seg: seg, snap: snap}
	return true
}

// StagedSegments returns the checkpoint entries of the staged segments no
// revival has claimed yet, in key order.
func (a *ATC) StagedSegments() []state.TopicSegment {
	segs := make([]state.TopicSegment, 0, len(a.staged))
	for _, st := range a.staged {
		segs = append(segs, st.seg)
	}
	slices.SortFunc(segs, func(x, y state.TopicSegment) int { return strings.Compare(x.Key, y.Key) })
	return segs
}

// segment is a node's retained state on its way back in, from the staged
// table or the spill tier, with the byte count its read is charged.
type segment struct {
	snap   *state.NodeSnapshot // nil when a spilled segment could not be read
	bytes  int64
	staged bool
}

// takeSegment claims a node's segment: the staged table first, then the
// spill tier. ok is false when neither holds one.
func (a *ATC) takeSegment(key string) (seg segment, ok bool) {
	if st, ok := a.staged[key]; ok {
		delete(a.staged, key)
		return segment{snap: st.snap, bytes: int64(len(st.seg.Data)), staged: true}, true
	}
	if a.spill == nil || !a.spill.Has(key) {
		return segment{}, false
	}
	// An unreadable segment comes back without a snapshot, which the gate
	// drops; Take has already removed it from disk.
	snap, _, bytes, _ := a.spill.Take(key)
	return segment{snap: snap, bytes: bytes}, true
}

// dropSegment counts a segment the consistency gate refused, by origin.
func (a *ATC) dropSegment(seg segment) {
	if seg.staged {
		a.Env.Metrics.AddMigrationDrop()
	} else {
		a.spill.NoteDropped()
	}
}

// restored counts a reinstalled segment by origin and charges its read as
// local spill I/O.
func (a *ATC) restored(key string, seg segment) {
	delete(a.evictedKeys, key)
	a.Env.ChargeSpillRead(seg.snap.RowCount(), seg.bytes)
	if seg.staged {
		a.Env.Metrics.AddMigrationRestore()
	} else {
		a.Env.Metrics.AddRevivalFromSpill()
	}
}
