// Package recovery is the crash-recovery tier for one shard: a durable
// checkpoint store plus an admission journal in a per-shard directory that
// survives process death.
//
// Checkpoints reuse the PR3 spill segment format: each retained plan node is
// one state.EncodeSegment payload, written as its own file and committed by
// an atomically-published generation-numbered manifest (temp + rename + dir
// fsync). A restarted shard loads the newest manifest and imports its
// segments through the same consistency gate that protects spill revival —
// a segment that does not match the rebuilt graph's structure is dropped
// and the state is re-derived by source replay, never installed wrong.
//
// The admission journal records which user queries were admitted and which
// completed, so after a crash the shard knows exactly which merges were in
// flight. Those are reported as non-retryable recovered-abort sheds (the PR6
// retry contract forbids re-running a possibly-executed query from inside
// the RPC layer); the front-end's re-dispatch path may resubmit them to a
// healthy shard, where answering is safe because answers are a pure function
// of query and data.
package recovery

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/state"
)

// QueryRecord identifies one admitted user query: everything a front-end
// needs to resubmit it elsewhere.
type QueryRecord struct {
	ID       string   `json:"id"`
	Keywords []string `json:"kw"`
	K        int      `json:"k"`
}

// SegmentMeta describes one checkpointed segment file in a manifest. The
// structural fields mirror state.TopicSegment; SHA256 and Bytes let Load
// verify the file before handing its payload to the decoder.
type SegmentMeta struct {
	File      string  `json:"file"`
	Key       string  `json:"key"`
	ExprKey   string  `json:"expr_key"`
	Kind      int     `json:"kind"`
	StreamPos int     `json:"stream_pos"`
	Card      float64 `json:"card"`
	Rows      int     `json:"rows"`
	Bytes     int     `json:"bytes"`
	SHA256    string  `json:"sha256"`
}

// Manifest is the commit record of one checkpoint generation. Its atomic
// publication (temp + rename) is what makes the generation visible; segment
// files without a manifest are garbage.
type Manifest struct {
	Generation int           `json:"generation"`
	Epoch      int           `json:"epoch"`
	Segments   []SegmentMeta `json:"segments"`
}

// Checkpoint is a loaded generation, decoded back into the state.TopicExport
// shape the engine's import path consumes.
type Checkpoint struct {
	Generation int
	// Dropped counts segment files that failed verification at load (torn,
	// corrupt, missing); their state re-derives from the sources.
	Dropped int
	Export  *state.TopicExport
}

// Store is one shard's checkpoint directory. All methods are called from a
// single goroutine (the shard's checkpoint loop / startup path); the Store
// itself holds no locks.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a shard checkpoint directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("recovery: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: store dir: %w", err)
	}
	s := &Store{dir: dir}
	// Orphan temp files are uncommitted work from a crashed writer.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	return s, nil
}

func manifestName(gen int) string { return fmt.Sprintf("manifest-%09d.json", gen) }
func segmentFile(gen, i int) string {
	return fmt.Sprintf("seg-%09d-%04d.seg", gen, i)
}

// generations lists committed manifest generations, ascending.
func (s *Store) generations() []int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var gens []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "manifest-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "manifest-"), ".json"))
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens
}

// Write publishes one checkpoint generation: every segment file is written
// and fsynced first, then the manifest commits the generation atomically
// (temp + fsync + rename + dir fsync). Older generations are garbage
// collected after the new one is durable. A crash at any point leaves
// either the previous generation or the new one loadable — never a torn mix.
func (s *Store) Write(exp *state.TopicExport) (gen int, err error) {
	gens := s.generations()
	gen = 1
	if n := len(gens); n > 0 {
		gen = gens[n-1] + 1
	}
	man := Manifest{Generation: gen, Epoch: exp.Epoch}
	for i := range exp.Segments {
		seg := &exp.Segments[i]
		name := segmentFile(gen, i)
		if err := writeDurable(filepath.Join(s.dir, name), seg.Data); err != nil {
			return 0, fmt.Errorf("recovery: segment %s: %w", name, err)
		}
		sum := sha256.Sum256(seg.Data)
		man.Segments = append(man.Segments, SegmentMeta{
			File:      name,
			Key:       seg.Key,
			ExprKey:   seg.ExprKey,
			Kind:      seg.Kind,
			StreamPos: seg.StreamPos,
			Card:      seg.Card,
			Rows:      seg.Rows,
			Bytes:     len(seg.Data),
			SHA256:    hex.EncodeToString(sum[:]),
		})
	}
	data, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return 0, err
	}
	if err := writeDurable(filepath.Join(s.dir, manifestName(gen)), data); err != nil {
		return 0, fmt.Errorf("recovery: manifest: %w", err)
	}
	s.gc(gen)
	return gen, nil
}

// gc removes every committed generation older than keep, and any segment
// files not belonging to keep (uncommitted leftovers included).
func (s *Store) gc(keep int) {
	for _, g := range s.generations() {
		if g < keep {
			os.Remove(filepath.Join(s.dir, manifestName(g)))
		}
	}
	segs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return
	}
	prefix := fmt.Sprintf("seg-%09d-", keep)
	for _, p := range segs {
		if !strings.HasPrefix(filepath.Base(p), prefix) {
			os.Remove(p)
		}
	}
}

// Load opens the newest committed generation, verifying each segment file
// against the manifest's size and digest. A torn or corrupt segment is
// dropped (counted in Checkpoint.Dropped) — its state re-derives from the
// sources; the downstream structural gate re-checks everything that does
// load. A segment is read only from the name Write gives the manifest's
// i-th segment, so a damaged manifest cannot point Load outside the
// directory or at another generation's files. A manifest that is
// unreadable, or whose generation field disagrees with its file name,
// falls back to the next older generation. No generation at all returns
// (nil, nil): a cold start.
func (s *Store) Load() (*Checkpoint, error) {
	gens := s.generations()
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		data, err := os.ReadFile(filepath.Join(s.dir, manifestName(gen)))
		if err != nil {
			continue
		}
		var man Manifest
		if err := json.Unmarshal(data, &man); err != nil || man.Generation != gen {
			continue
		}
		cp := &Checkpoint{
			Generation: gen,
			Export:     &state.TopicExport{Epoch: man.Epoch},
		}
		for i, m := range man.Segments {
			if m.File != segmentFile(gen, i) {
				cp.Dropped++
				continue
			}
			payload, err := os.ReadFile(filepath.Join(s.dir, m.File))
			if err != nil || len(payload) != m.Bytes {
				cp.Dropped++
				continue
			}
			sum := sha256.Sum256(payload)
			if hex.EncodeToString(sum[:]) != m.SHA256 {
				cp.Dropped++
				continue
			}
			cp.Export.Segments = append(cp.Export.Segments, state.TopicSegment{
				Key:       m.Key,
				ExprKey:   m.ExprKey,
				Kind:      m.Kind,
				StreamPos: m.StreamPos,
				Card:      m.Card,
				Rows:      m.Rows,
				Data:      payload,
			})
		}
		return cp, nil
	}
	return nil, nil
}

// writeDurable writes data to path via a temp file, fsyncs it, renames it
// into place, and fsyncs the directory — the same publish discipline as the
// spill tier's segment writes.
func writeDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// StatsSnapshot is the recovery tier's observable state, surfaced through
// the shard's /stats.
type StatsSnapshot struct {
	Enabled            bool  `json:"enabled"`
	Generation         int   `json:"generation"`
	CheckpointsWritten int64 `json:"checkpoints_written"`
	CheckpointsLoaded  int64 `json:"checkpoints_loaded"`
	SegmentsWritten    int64 `json:"segments_written"`
	SegmentsRecovered  int64 `json:"segments_recovered"`
	SegmentsDropped    int64 `json:"segments_dropped"`
	JournaledAborts    int   `json:"journaled_aborts"`
	// JournalErrors counts admission-journal writes that failed (admit, done
	// or checkpoint compaction). Admission stays best-effort past one, so a
	// nonzero count means a crash may under-report its in-flight set.
	JournalErrors int64 `json:"journal_errors"`
}

// Add merges two engines' recovery snapshots: enabled if either is, the
// newer generation, every count summed.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Enabled:            s.Enabled || o.Enabled,
		Generation:         max(s.Generation, o.Generation),
		CheckpointsWritten: s.CheckpointsWritten + o.CheckpointsWritten,
		CheckpointsLoaded:  s.CheckpointsLoaded + o.CheckpointsLoaded,
		SegmentsWritten:    s.SegmentsWritten + o.SegmentsWritten,
		SegmentsRecovered:  s.SegmentsRecovered + o.SegmentsRecovered,
		SegmentsDropped:    s.SegmentsDropped + o.SegmentsDropped,
		JournaledAborts:    s.JournaledAborts + o.JournaledAborts,
		JournalErrors:      s.JournalErrors + o.JournalErrors,
	}
}
