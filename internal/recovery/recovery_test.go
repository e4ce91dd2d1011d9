package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/state"
)

func testExport(gen int) *state.TopicExport {
	exp := &state.TopicExport{Epoch: gen}
	for i := 0; i < 3; i++ {
		exp.Segments = append(exp.Segments, state.TopicSegment{
			Key:       fmt.Sprintf("node-%d", i),
			ExprKey:   fmt.Sprintf("expr-%d", i),
			Kind:      i % 2,
			StreamPos: 10 * i,
			Card:      float64(100 + i),
			Rows:      5 + i,
			Data:      []byte(fmt.Sprintf("gen%d-segment-%d-payload", gen, i)),
		})
	}
	return exp
}

func TestStoreRoundTripAndGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Cold start: no generation at all.
	if cp, err := st.Load(); err != nil || cp != nil {
		t.Fatalf("cold Load = (%v, %v), want (nil, nil)", cp, err)
	}

	for want := 1; want <= 3; want++ {
		gen, err := st.Write(testExport(want))
		if err != nil {
			t.Fatal(err)
		}
		if gen != want {
			t.Fatalf("Write generation = %d, want %d", gen, want)
		}
	}

	// Only the newest generation survives gc: one manifest, its segments.
	if gens := st.generations(); len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("generations after gc = %v, want [3]", gens)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 3 {
		t.Fatalf("segment files after gc = %d, want 3", len(segs))
	}

	cp, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Generation != 3 || cp.Dropped != 0 {
		t.Fatalf("Load = %+v, want generation 3 with 0 dropped", cp)
	}
	want := testExport(3)
	if cp.Export.Epoch != want.Epoch || len(cp.Export.Segments) != len(want.Segments) {
		t.Fatalf("export mismatch: %+v", cp.Export)
	}
	for i, seg := range cp.Export.Segments {
		w := want.Segments[i]
		if seg.Key != w.Key || seg.ExprKey != w.ExprKey || seg.Kind != w.Kind ||
			seg.StreamPos != w.StreamPos || seg.Card != w.Card || seg.Rows != w.Rows ||
			string(seg.Data) != string(w.Data) {
			t.Fatalf("segment %d round-trip mismatch: got %+v want %+v", i, seg, w)
		}
	}
}

func TestLoadDropsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(testExport(1)); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in one segment (digest mismatch), truncate another (size
	// mismatch): both must be dropped, the intact one must still load.
	bad := filepath.Join(dir, segmentFile(1, 0))
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, segmentFile(1, 1)), 3); err != nil {
		t.Fatal(err)
	}

	cp, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Dropped != 2 || len(cp.Export.Segments) != 1 {
		t.Fatalf("Load = %+v, want 2 dropped, 1 surviving segment", cp)
	}
	if cp.Export.Segments[0].Key != "node-2" {
		t.Fatalf("surviving segment = %q, want node-2", cp.Export.Segments[0].Key)
	}
}

func TestLoadFallsBackPastTornManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(testExport(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-publication of generation 2: a torn manifest on
	// disk, generation 1's manifest intact (gc only runs after a durable
	// commit, so craft the torn file directly).
	if err := os.WriteFile(filepath.Join(dir, manifestName(2)), []byte(`{"generation":2,`), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Generation != 1 || cp.Dropped != 0 {
		t.Fatalf("Load = %+v, want fallback to generation 1", cp)
	}
}

func TestJournalReplayAdmitsMinusDones(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl, inflight, err := st.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if len(inflight) != 0 {
		t.Fatalf("fresh journal reports %d in flight", len(inflight))
	}
	recs := []QueryRecord{
		{ID: "UQ1", Keywords: []string{"gene", "kinase"}, K: 10},
		{ID: "UQ2", Keywords: []string{"promoter"}, K: 5},
		{ID: "UQ3", Keywords: []string{"ribosome"}, K: 7},
	}
	if err := jnl.Admit(recs); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Done("UQ2"); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-append a torn tail: replay must stop there, keeping everything
	// fsynced before it.
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"d","id":"UQ`)
	f.Close()

	jnl2, inflight, err := st.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if len(inflight) != 2 || inflight[0].ID != "UQ1" || inflight[1].ID != "UQ3" {
		t.Fatalf("replay = %+v, want [UQ1 UQ3] in admission order", inflight)
	}
	if inflight[0].K != 10 || len(inflight[0].Keywords) != 2 {
		t.Fatalf("replay lost admit payload: %+v", inflight[0])
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := st.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		id := fmt.Sprintf("UQ%d", i)
		if err := jnl.Admit([]QueryRecord{{ID: id, Keywords: []string{"kw"}, K: 3}}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := jnl.Done(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, _ := os.Stat(filepath.Join(dir, journalFile))
	if err := jnl.Rewrite([]QueryRecord{{ID: "UQ49", Keywords: []string{"kw"}, K: 3}}); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, journalFile))
	if after.Size() >= before.Size() {
		t.Fatalf("rewrite did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	// The compacted journal must stay appendable and replay to exactly the
	// rewritten set plus later activity.
	if err := jnl.Admit([]QueryRecord{{ID: "UQ51", K: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	_, inflight, err := st.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	if len(inflight) != 2 || inflight[0].ID != "UQ49" || inflight[1].ID != "UQ51" {
		t.Fatalf("post-rewrite replay = %+v, want [UQ49 UQ51]", inflight)
	}
}

// TestDurabilityErrorsReported: a directory fsync that cannot run and a
// journal tail that cannot be flushed are errors, not silent successes.
func TestDurabilityErrorsReported(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("syncDir of a missing directory reported success")
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := st.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	// A buffered record over a file that refuses writes cannot be flushed,
	// though the file closes cleanly: Close must report the flush.
	jnl.f.Close()
	if jnl.f, err = os.Open(jnl.path); err != nil {
		t.Fatal(err)
	}
	jnl.w.Reset(jnl.f)
	jnl.w.WriteString("{\"op\":\"d\",\"id\":\"UQ1\"}\n")
	if err := jnl.Close(); err == nil {
		t.Error("Close dropped the failed flush of the journal tail")
	}
}
