package recovery

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The admission journal is a JSON-lines append log in the shard's recovery
// directory, deliberately independent of checkpoint generations: a crash
// before the first checkpoint ever commits still yields the exact in-flight
// set. Each admitted query appends an "a" record (fsynced before the engine
// sees the query, so a journal gap can never hide an admitted merge); each
// completion appends a "d" record without fsync — losing one only
// over-reports the abort set, and re-dispatch resubmits a query only when
// its own RPC actually failed, so over-reporting is harmless. At every
// checkpoint the journal is rewritten to just the current in-flight set
// (temp + rename), bounding its size.

type journalEntry struct {
	Op       string   `json:"op"` // "a" admitted, "d" done
	ID       string   `json:"id"`
	Keywords []string `json:"kw,omitempty"`
	K        int      `json:"k,omitempty"`
}

// Journal is one shard's admission journal. It is confined to the shard's
// executor goroutine; no locks.
type Journal struct {
	path string
	f    *os.File
	w    *bufio.Writer
}

const journalFile = "journal.log"

// OpenJournal replays the store's existing journal — admit records without a
// matching done record are the queries in flight at the crash — and reopens
// it for appending. Replay stops at the first unparsable line (a torn tail
// from the crash); everything before it is intact because admits are fsynced.
func (s *Store) OpenJournal() (*Journal, []QueryRecord, error) {
	path := filepath.Join(s.dir, journalFile)
	inflight := replayJournal(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: journal: %w", err)
	}
	return &Journal{path: path, f: f, w: bufio.NewWriter(f)}, inflight, nil
}

// replayJournal reads the journal and returns admitted-but-not-done queries
// in admission order. A missing file is an empty journal.
func replayJournal(path string) []QueryRecord {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	open := map[string]int{} // UQ id -> index in order
	var order []QueryRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break // torn tail
		}
		switch e.Op {
		case "a":
			if _, ok := open[e.ID]; !ok {
				open[e.ID] = len(order)
				order = append(order, QueryRecord{ID: e.ID, Keywords: e.Keywords, K: e.K})
			}
		case "d":
			delete(open, e.ID)
		}
	}
	// An id done and admitted again (a restarted front desk numbers from
	// UQ1 anew) has a record per admission; only the open one counts.
	out := make([]QueryRecord, 0, len(open))
	for i, rec := range order {
		if j, ok := open[rec.ID]; ok && j == i {
			out = append(out, rec)
		}
	}
	return out
}

// Admit appends admit records for a batch and fsyncs them durable. It must
// return before the engine executes the batch: a query the journal does not
// know about must not run.
func (j *Journal) Admit(recs []QueryRecord) error {
	if j == nil {
		return nil
	}
	for _, r := range recs {
		if err := j.append(journalEntry{Op: "a", ID: r.ID, Keywords: r.Keywords, K: r.K}); err != nil {
			return err
		}
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Done appends a completion record. No fsync: a lost done only widens the
// reported abort set, never hides an admitted query.
func (j *Journal) Done(id string) error {
	if j == nil {
		return nil
	}
	if err := j.append(journalEntry{Op: "d", ID: id}); err != nil {
		return err
	}
	return j.w.Flush()
}

func (j *Journal) append(e journalEntry) error {
	data, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	return j.w.WriteByte('\n')
}

// Rewrite compacts the journal to exactly the given in-flight set,
// published atomically (temp + fsync + rename + dir fsync) so a crash
// mid-compaction keeps the old journal. Called at each checkpoint with the
// shard's current in-flight queries, sorted by UQ id.
func (j *Journal) Rewrite(inflight []QueryRecord) error {
	if j == nil {
		return nil
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range inflight {
		data, err := json.Marshal(&journalEntry{Op: "a", ID: r.ID, Keywords: r.Keywords, K: r.K})
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		w.Write(data)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(j.path))
	// Swap the append handle to the new file.
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	return nil
}

// Close flushes and closes the journal file (the file itself persists — it
// is the crash record).
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	j.w.Flush()
	err := j.f.Close()
	j.f = nil
	return err
}
