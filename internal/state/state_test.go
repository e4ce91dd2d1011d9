package state

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tuple"
)

func TestLedgerRunningTotals(t *testing.T) {
	l := NewLedger()
	a := l.NewAccount()
	b := l.NewAccount()
	a.Add(10)
	b.Add(5)
	a.Add(-3)
	if l.Total() != 12 || a.Rows() != 7 || b.Rows() != 5 {
		t.Fatalf("total=%d a=%d b=%d", l.Total(), a.Rows(), b.Rows())
	}
	l.Release(a)
	if l.Total() != 5 {
		t.Fatalf("after release total=%d", l.Total())
	}
	// Adds on a released account and double-release are no-ops (eviction
	// racing cancellation must not corrupt the ledger).
	a.Add(100)
	l.Release(a)
	if l.Total() != 5 || l.Accounts() != 1 {
		t.Fatalf("after dead adds total=%d accounts=%d", l.Total(), l.Accounts())
	}
	// Nil receivers are inert.
	var nilAcct *Account
	nilAcct.Add(1)
	if nilAcct.Rows() != 0 || nilAcct.Live() {
		t.Fatal("nil account not inert")
	}
}

// spillFixture builds two tiny relations and a resolver over them.
func spillFixture(t testing.TB) (map[string][]*tuple.Tuple, TupleResolver) {
	t.Helper()
	mk := func(name string, n int) []*tuple.Tuple {
		s := tuple.NewSchema(name,
			tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
		)
		out := make([]*tuple.Tuple, n)
		for i := 0; i < n; i++ {
			out[i] = tuple.New(s, tuple.Int(int64(i)), tuple.Float(1-float64(i)/float64(n))).WithSeq(int64(i))
		}
		return out
	}
	rels := map[string][]*tuple.Tuple{"R": mk("R", 8), "S": mk("S", 6)}
	resolve := func(rel string, seq int64) (*tuple.Tuple, error) {
		rows, ok := rels[rel]
		if !ok || seq < 0 || int(seq) >= len(rows) {
			return nil, fmt.Errorf("no %s[%d]", rel, seq)
		}
		return rows[seq], nil
	}
	return rels, resolve
}

func TestSpillRoundTrip(t *testing.T) {
	rels, resolve := spillFixture(t)
	sp, err := NewSpill(filepath.Join(t.TempDir(), "shard-0"), resolve)
	if err != nil {
		t.Fatal(err)
	}
	snap := &NodeSnapshot{
		Key:       "join::R&S",
		Kind:      2,
		StreamPos: 0,
		LogRows:   []*tuple.Row{tuple.NewRow(rels["R"][0], rels["S"][1]), tuple.NewRow(rels["R"][2], rels["S"][3])},
		LogEpochs: []int{1, 2},
		Modules: []ModuleSnapshot{
			{
				ProducerKey: "stream::R", Coverage: []int{0},
				Parts:  [][]*tuple.Tuple{{rels["R"][0], nil}, {rels["R"][2], nil}},
				Epochs: []int{1, 2},
			},
			{
				ProducerKey: "stream::S", Coverage: []int{1}, Probe: true,
				Parts:  [][]*tuple.Tuple{{nil, rels["S"][1]}},
				Epochs: []int{1},
			},
		},
	}
	rows, bytes, err := sp.Write(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 5 || bytes <= 0 {
		t.Fatalf("write rows=%d bytes=%d", rows, bytes)
	}
	if !sp.Has("join::R&S") {
		t.Fatal("segment not indexed")
	}

	got, rrows, rbytes, err := sp.Take("join::R&S")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || rrows != rows || rbytes != bytes {
		t.Fatalf("take rows=%d bytes=%d snap=%v", rrows, rbytes, got)
	}
	if got.Kind != 2 || len(got.LogRows) != 2 || len(got.Modules) != 2 {
		t.Fatalf("shape: %+v", got)
	}
	// Resolution restores the canonical pointers, not copies.
	if got.LogRows[0].Part(0) != rels["R"][0] || got.LogRows[0].Part(1) != rels["S"][1] {
		t.Fatal("log row parts not canonical tuples")
	}
	if got.LogRows[0].Identity() != snap.LogRows[0].Identity() {
		t.Fatal("row identity changed across spill")
	}
	if got.Modules[0].Parts[1][0] != rels["R"][2] || got.Modules[0].Parts[1][1] != nil {
		t.Fatal("module parts wrong")
	}
	if !got.Modules[1].Probe || got.Modules[1].ProducerKey != "stream::S" {
		t.Fatalf("module meta: %+v", got.Modules[1])
	}
	if got.LogEpochs[1] != 2 || got.Modules[0].Epochs[1] != 2 {
		t.Fatal("epochs lost")
	}

	// Taken segments are gone — a second Take is a clean miss, and the file
	// was removed from disk.
	if again, _, _, err := sp.Take("join::R&S"); err != nil || again != nil {
		t.Fatalf("second take: %v %v", again, err)
	}
	entries, err := os.ReadDir(sp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("segments leaked: %v", entries)
	}

	st := sp.Stats()
	if st.SegmentsWritten != 1 || st.SegmentsRead != 1 || st.RowsWritten != int64(rows) || st.Resident != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSpillTornWriteNeverServed pins the crash-safety contract of the disk
// tier: Write stages into a temp file and publishes by rename, so a crash
// mid-write leaves only an orphan .tmp (cleaned on reopen), never a torn
// segment under the final name — and even a segment torn by outside forces
// decodes to an error, never to garbage state.
func TestSpillTornWriteNeverServed(t *testing.T) {
	rels, resolve := spillFixture(t)
	dir := filepath.Join(t.TempDir(), "shard-0")
	sp, err := NewSpill(dir, resolve)
	if err != nil {
		t.Fatal(err)
	}
	snap := &NodeSnapshot{
		Key:       "join::R&S",
		Kind:      2,
		LogRows:   []*tuple.Row{tuple.NewRow(rels["R"][0], rels["S"][1]), tuple.NewRow(rels["R"][2], rels["S"][3])},
		LogEpochs: []int{1, 2},
	}
	if _, _, err := sp.Write(snap); err != nil {
		t.Fatal(err)
	}
	// No temp file survives a successful publish.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left after Write: %v", tmps)
	}

	// Tear the published segment (as a crashed kernel page-out might) and
	// confirm Take reports an error instead of returning partial state.
	path := sp.index[snap.Key]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := sp.Take(snap.Key); err == nil {
		t.Fatalf("torn segment served: %+v", got)
	}

	// A crash between staging and rename leaves an orphan .tmp; a fresh
	// Spill over the same directory removes it.
	orphan := filepath.Join(dir, "deadbeefdeadbeef.seg.tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpill(dir, resolve); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp survived reopen: %v", err)
	}
}

func TestSpillCloseRemovesDir(t *testing.T) {
	_, resolve := spillFixture(t)
	dir := filepath.Join(t.TempDir(), "spill", "shard-3")
	sp, err := NewSpill(dir, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sp.Write(&NodeSnapshot{Key: "stream::R", Kind: 0, StreamPos: 4}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survived Close: %v", err)
	}
}
