package state

import (
	"bytes"
	"fmt"
)

// This file gives the PR3 spill segment format a second life as the
// checkpoint format: EncodeSegment/DecodeSegment serialize a NodeSnapshot to
// and from a byte slice, and TopicExport bundles the encoded segments of an
// engine's retained plan state. Checkpoint recovery is the one producer of
// staged segments: a restarted engine imports its last checkpoint's
// TopicExport. The encoding is byte-identical to the disk tier's segment
// files (magic "QSPL1\n", varints, relation table, base-tuple refs), so the
// same consistency gate that protects spill revival protects recovery: a
// decoded segment that does not match the receiving graph's structure is
// dropped and the state is re-derived by source replay — never reinstalled
// wrong.

// EncodeSegment serializes a snapshot into a standalone segment byte slice,
// returning the encoding together with the snapshot's row count.
func EncodeSegment(snap *NodeSnapshot) ([]byte, int, error) {
	if snap == nil {
		return nil, 0, fmt.Errorf("state: nil snapshot")
	}
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, snap); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), snap.rows(), nil
}

// DecodeSegment decodes a segment produced by EncodeSegment (or read from a
// spill file), resolving its base-tuple references against the receiving
// engine's canonical relation stores. Corrupt or truncated data returns an
// error; callers treat that as a dropped segment.
func DecodeSegment(data []byte, resolve TupleResolver) (*NodeSnapshot, error) {
	if resolve == nil {
		return nil, fmt.Errorf("state: segment decode needs a tuple resolver")
	}
	r := &countReader{r: bytes.NewReader(data)}
	snap, err := decodeSnapshot(r, resolve)
	if err != nil {
		return nil, fmt.Errorf("state: segment decode: %w", err)
	}
	return snap, nil
}

// TopicSegment is one node's encoded state in a checkpoint, annotated with
// the structural facts the recovering engine needs before it decodes anything:
// the node key (where it installs), the expression key (how the catalog
// prices it), and the stream position / observed cardinality that let the
// recovering engine's optimizer cost the checkpointed prefix as resident
// state.
type TopicSegment struct {
	// Key is the node's scoped plan-graph key; ExprKey the canonical
	// expression key (catalog accounting); Kind the plangraph.Kind.
	Key     string `json:"key"`
	ExprKey string `json:"expr_key"`
	Kind    int    `json:"kind"`
	// StreamPos is the stream's delivered prefix (stream nodes); Card the
	// expression's observed cardinality when the stream was exhausted at
	// capture, else -1.
	StreamPos int     `json:"stream_pos"`
	Card      float64 `json:"card"`
	// Rows counts the segment's retained rows; Data is the EncodeSegment
	// payload (JSON marshals it as base64).
	Rows int    `json:"rows"`
	Data []byte `json:"data"`
}

// TopicExport is an engine's retained plan state, serialized as a
// checkpoint. Epoch is the engine's logical clock at capture; the importer
// advances its own clock past it so every imported row is strictly
// historical there.
type TopicExport struct {
	Epoch    int            `json:"epoch"`
	Segments []TopicSegment `json:"segments"`
}

// RowCount reports the snapshot's retained rows (log plus module rows).
func (s *NodeSnapshot) RowCount() int { return s.rows() }

// Rows sums the export's retained rows.
func (e *TopicExport) Rows() int {
	n := 0
	for i := range e.Segments {
		n += e.Segments[i].Rows
	}
	return n
}
