package state

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/tuple"
)

// TupleResolver maps a spilled base-tuple reference — relation name plus the
// tuple's position in that relation's score order — back to the canonical
// in-memory tuple. Spilled rows reference base tuples instead of embedding
// their values: every structure in the middleware aliases the same backing
// tuples by pointer (see tuple.Tuple), so resolution restores exactly the
// rows that were evicted, identity caches included.
type TupleResolver func(rel string, seq int64) (*tuple.Tuple, error)

// ModuleSnapshot is one access module's spilled state, together with the
// structural fingerprint of the input edge it belonged to. Revival only
// reinstalls a module when the regrafted node's edge matches the
// fingerprint — a re-optimized plan may partition the same expression over
// different inputs, and reinstalling rows across that mismatch would corrupt
// the join state.
type ModuleSnapshot struct {
	// ProducerKey is the scoped key of the node feeding the input.
	ProducerKey string
	// Coverage is the edge's atom map (producer atom -> node atom).
	Coverage []int
	// Probe marks a random-access input.
	Probe bool
	// Parts holds the module's rows in insertion order, in node atom space
	// (nil outside the input's coverage); Epochs are their §6.2 stamps.
	Parts  [][]*tuple.Tuple
	Epochs []int
}

// NodeSnapshot is everything a parked plan segment needs to come back: the
// node's output log (epoch-stamped, arrival order), its stream position for
// source nodes, and its access modules for join nodes.
type NodeSnapshot struct {
	// Key is the node's scoped plan-graph key; Kind its plangraph.Kind.
	Key  string
	Kind int
	// StreamPos is how many rows the stream source had delivered.
	StreamPos int
	// LogRows / LogEpochs are the node's output history.
	LogRows   []*tuple.Row
	LogEpochs []int
	// Modules holds per-input module state (join nodes).
	Modules []ModuleSnapshot
}

func (s *NodeSnapshot) rows() int {
	n := len(s.LogRows)
	for _, m := range s.Modules {
		n += len(m.Parts)
	}
	return n
}

// SpillStats counts a spill store's traffic.
type SpillStats struct {
	SegmentsWritten, RowsWritten int64
	BytesWritten                 int64
	SegmentsRead, RowsRead       int64
	BytesRead                    int64
	Dropped                      int64 // segments discarded as structurally stale
	Resident                     int   // segments currently on disk
}

// Spill is the disk tier for one shard's evicted plan segments. Each evicted
// node becomes one segment file under the store's directory, written in a
// length-prefixed binary format; Take reads a segment back (removing it) and
// resolves its base-tuple references through the TupleResolver. A Spill is
// confined to its engine's executor goroutine.
type Spill struct {
	dir     string
	resolve TupleResolver
	index   map[string]string // node key -> segment path
	stats   SpillStats
}

// NewSpill opens (creating) a spill directory. The directory should be
// private to one shard; Close removes it entirely.
func NewSpill(dir string, resolve TupleResolver) (*Spill, error) {
	if dir == "" {
		return nil, fmt.Errorf("state: spill needs a directory")
	}
	if resolve == nil {
		return nil, fmt.Errorf("state: spill needs a tuple resolver")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: spill dir: %w", err)
	}
	// A crash between staging and rename leaves orphan temp files; they were
	// never published, so discard them. (Pre-existing .seg files are also
	// orphans — the index is in-memory only — but harmless: Write replaces
	// them per key and Close removes the directory.)
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	return &Spill{dir: dir, resolve: resolve, index: map[string]string{}}, nil
}

// Dir returns the store's directory.
func (s *Spill) Dir() string { return s.dir }

// Stats returns traffic counts.
func (s *Spill) Stats() SpillStats {
	st := s.stats
	st.Resident = len(s.index)
	return st
}

// Has reports whether a segment exists for the node key.
func (s *Spill) Has(key string) bool {
	if s == nil {
		return false
	}
	_, ok := s.index[key]
	return ok
}

// Write serializes a snapshot to a segment file, replacing any previous
// segment for the same key. It returns the rows and bytes written. The
// segment is staged in a temp file and published by rename so a crash
// mid-write can never leave a torn segment under the final name — readers
// see either the old complete segment or the new one. Nothing is fsynced:
// the index of segments lives only in this process's memory, so a segment
// is never read by a later process, and a crash that loses unsynced pages
// loses the only reader with them. A segment torn any other way fails to
// decode (every count is checked against the file's size) rather than
// being served.
func (s *Spill) Write(snap *NodeSnapshot) (rows int, bytes int64, err error) {
	path := filepath.Join(s.dir, segmentName(snap.Key))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	cw := &countWriter{w: w}
	if err := encodeSnapshot(cw, snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	s.index[snap.Key] = path
	rows = snap.rows()
	s.stats.SegmentsWritten++
	s.stats.RowsWritten += int64(rows)
	s.stats.BytesWritten += cw.n
	return rows, cw.n, nil
}

// Take reads and removes the segment for a node key, resolving its rows.
// A missing segment returns (nil, 0, 0, nil).
func (s *Spill) Take(key string) (*NodeSnapshot, int, int64, error) {
	if s == nil {
		return nil, 0, 0, nil
	}
	path, ok := s.index[key]
	if !ok {
		return nil, 0, 0, nil
	}
	delete(s.index, key)
	f, err := os.Open(path)
	if err != nil {
		os.Remove(path) // never orphan an unreadable segment on disk
		return nil, 0, 0, err
	}
	var snap *NodeSnapshot
	cr := &countReader{r: bufio.NewReader(f)}
	info, err := f.Stat()
	if err == nil {
		cr.size = info.Size()
		snap, err = decodeSnapshot(cr, s.resolve)
	}
	f.Close()
	os.Remove(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("state: segment %s: %w", path, err)
	}
	if snap.Key != key {
		// Filename hash collision (astronomically unlikely); the stored key
		// is authoritative, so treat as a miss.
		return nil, 0, 0, nil
	}
	rows := snap.rows()
	s.stats.SegmentsRead++
	s.stats.RowsRead += int64(rows)
	s.stats.BytesRead += cr.n
	return snap, rows, cr.n, nil
}

// NoteDropped records a segment discarded as structurally stale (taken but
// not reinstalled).
func (s *Spill) NoteDropped() {
	if s != nil {
		s.stats.Dropped++
	}
}

// Close removes every segment and the store's directory.
func (s *Spill) Close() error {
	if s == nil {
		return nil
	}
	s.index = map[string]string{}
	return os.RemoveAll(s.dir)
}

func segmentName(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x.seg", h.Sum64())
}

// --- segment encoding ---------------------------------------------------
//
// A segment is a length-prefixed binary document:
//
//	magic "QSPL1\n"
//	key, kind, streamPos
//	relation table (distinct relation names, referenced by index)
//	log rows, then per-module (producer key, coverage, probe, rows)
//
// Rows are arrays of base-tuple references: 0 for a nil part, else
// 1+relation-table-index followed by the tuple's score-order sequence
// number. Integers are unsigned/signed varints; strings are
// length-prefixed.

const segMagic = "QSPL1\n"

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countReader struct {
	r    io.ByteReader
	n    int64
	size int64 // bytes in the whole input
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// count reads the length of a sequence whose elements take at least each
// bytes apiece, and refuses one the rest of the input cannot hold: a corrupt
// count never sizes an allocation.
func (c *countReader) count(what string, each int64) (int, error) {
	n, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, err
	}
	if left := c.size - c.n; n > uint64(left/each) {
		return 0, fmt.Errorf("%s count %d exceeds the %d bytes left", what, n, left)
	}
	return int(n), nil
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r *countReader) (string, error) {
	n, err := r.count("string byte", 1)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			return "", err
		}
		buf[i] = b
	}
	return string(buf), nil
}

// relTable interns relation names for compact part references.
type relTable struct {
	names []string
	idx   map[string]int
}

func (t *relTable) id(name string) int {
	if i, ok := t.idx[name]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = map[string]int{}
	}
	i := len(t.names)
	t.names = append(t.names, name)
	t.idx[name] = i
	return i
}

func buildRelTable(snap *NodeSnapshot) *relTable {
	t := &relTable{}
	addRow := func(parts []*tuple.Tuple) {
		for _, p := range parts {
			if p != nil {
				t.id(p.Schema().Name())
			}
		}
	}
	for _, r := range snap.LogRows {
		addRow(r.Parts())
	}
	for _, m := range snap.Modules {
		for _, parts := range m.Parts {
			addRow(parts)
		}
	}
	return t
}

func encodeParts(w io.Writer, t *relTable, parts []*tuple.Tuple) error {
	if err := writeUvarint(w, uint64(len(parts))); err != nil {
		return err
	}
	for _, p := range parts {
		if p == nil {
			if err := writeUvarint(w, 0); err != nil {
				return err
			}
			continue
		}
		if err := writeUvarint(w, uint64(t.id(p.Schema().Name())+1)); err != nil {
			return err
		}
		if err := writeVarint(w, p.Seq()); err != nil {
			return err
		}
	}
	return nil
}

func decodeParts(r *countReader, rels []string, resolve TupleResolver) ([]*tuple.Tuple, error) {
	n, err := r.count("part", 1)
	if err != nil {
		return nil, err
	}
	parts := make([]*tuple.Tuple, n)
	for i := range parts {
		ref, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if ref == 0 {
			continue
		}
		if ref > uint64(len(rels)) {
			return nil, fmt.Errorf("relation ref %d out of table", ref)
		}
		seq, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		t, err := resolve(rels[ref-1], seq)
		if err != nil {
			return nil, err
		}
		parts[i] = t
	}
	return parts, nil
}

func encodeRowSet(w io.Writer, t *relTable, parts [][]*tuple.Tuple, epochs []int) error {
	if err := writeUvarint(w, uint64(len(parts))); err != nil {
		return err
	}
	for i, ps := range parts {
		if err := writeVarint(w, int64(epochs[i])); err != nil {
			return err
		}
		if err := encodeParts(w, t, ps); err != nil {
			return err
		}
	}
	return nil
}

func decodeRowSet(r *countReader, rels []string, resolve TupleResolver) ([][]*tuple.Tuple, []int, error) {
	n, err := r.count("row", 2) // an epoch and a part count
	if err != nil {
		return nil, nil, err
	}
	parts := make([][]*tuple.Tuple, n)
	epochs := make([]int, n)
	for i := range parts {
		e, err := binary.ReadVarint(r)
		if err != nil {
			return nil, nil, err
		}
		epochs[i] = int(e)
		ps, err := decodeParts(r, rels, resolve)
		if err != nil {
			return nil, nil, err
		}
		parts[i] = ps
	}
	return parts, epochs, nil
}

func encodeSnapshot(w io.Writer, snap *NodeSnapshot) error {
	if _, err := io.WriteString(w, segMagic); err != nil {
		return err
	}
	if err := writeString(w, snap.Key); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(snap.Kind)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(snap.StreamPos)); err != nil {
		return err
	}
	t := buildRelTable(snap)
	if err := writeUvarint(w, uint64(len(t.names))); err != nil {
		return err
	}
	for _, name := range t.names {
		if err := writeString(w, name); err != nil {
			return err
		}
	}
	logParts := make([][]*tuple.Tuple, len(snap.LogRows))
	for i, r := range snap.LogRows {
		logParts[i] = r.Parts()
	}
	if err := encodeRowSet(w, t, logParts, snap.LogEpochs); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(snap.Modules))); err != nil {
		return err
	}
	for _, m := range snap.Modules {
		if err := writeString(w, m.ProducerKey); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(len(m.Coverage))); err != nil {
			return err
		}
		for _, a := range m.Coverage {
			if err := writeVarint(w, int64(a)); err != nil {
				return err
			}
		}
		probe := uint64(0)
		if m.Probe {
			probe = 1
		}
		if err := writeUvarint(w, probe); err != nil {
			return err
		}
		if err := encodeRowSet(w, t, m.Parts, m.Epochs); err != nil {
			return err
		}
	}
	return nil
}

func decodeSnapshot(r *countReader, resolve TupleResolver) (*NodeSnapshot, error) {
	for i := 0; i < len(segMagic); i++ {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if b != segMagic[i] {
			return nil, fmt.Errorf("bad segment magic")
		}
	}
	snap := &NodeSnapshot{}
	var err error
	if snap.Key, err = readString(r); err != nil {
		return nil, err
	}
	kind, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	snap.Kind = int(kind)
	pos, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	snap.StreamPos = int(pos)
	nRels, err := r.count("relation", 1)
	if err != nil {
		return nil, err
	}
	rels := make([]string, nRels)
	for i := range rels {
		if rels[i], err = readString(r); err != nil {
			return nil, err
		}
	}
	logParts, logEpochs, err := decodeRowSet(r, rels, resolve)
	if err != nil {
		return nil, err
	}
	snap.LogRows = make([]*tuple.Row, len(logParts))
	snap.LogEpochs = logEpochs
	for i, ps := range logParts {
		snap.LogRows[i] = tuple.NewRow(ps...)
	}
	nMods, err := r.count("module", 4) // a key, a coverage, a probe flag, a row count
	if err != nil {
		return nil, err
	}
	snap.Modules = make([]ModuleSnapshot, nMods)
	for i := range snap.Modules {
		m := &snap.Modules[i]
		if m.ProducerKey, err = readString(r); err != nil {
			return nil, err
		}
		nCov, err := r.count("coverage", 1)
		if err != nil {
			return nil, err
		}
		m.Coverage = make([]int, nCov)
		for j := range m.Coverage {
			a, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			m.Coverage[j] = int(a)
		}
		probe, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		m.Probe = probe == 1
		if m.Parts, m.Epochs, err = decodeRowSet(r, rels, resolve); err != nil {
			return nil, err
		}
	}
	return snap, nil
}
