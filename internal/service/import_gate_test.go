package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/workload"
)

func digestSearch(t *testing.T, h hash.Hash, fr *fleet.Frontend, user string, kw []string, k int) *fleet.ResultView {
	t.Helper()
	view, err := fr.Search(context.Background(), user, kw, k)
	if err != nil {
		t.Fatalf("search %v: %v", kw, err)
	}
	fleet.DigestView(h, view)
	return view
}

// localEngines is fleet.NewLocal with the engines kept in hand, for tests
// that checkpoint or recover them directly.
func localEngines(t *testing.T, w *workload.Workload, cfg service.Config) (*fleet.Frontend, []*service.Service) {
	t.Helper()
	var engines []*service.Service
	var backends []fleet.Backend
	for i := 0; i < max(cfg.Shards, 1); i++ {
		ecfg := cfg
		ecfg.Shards, ecfg.ShardIDOffset = 1, i
		e := service.New(w, ecfg)
		engines = append(engines, e)
		backends = append(backends, &fleet.LocalBackend{Svc: e})
	}
	fr, err := fleet.NewFrontend(w, fleet.FrontendConfig{Service: cfg}, backends)
	if err != nil {
		t.Fatal(err)
	}
	return fr, engines
}

// checkpointTopic runs one search of topic on a fresh engine checkpointing
// to dir, publishes a checkpoint generation and closes the engine, as a
// process that is about to be restarted would.
func checkpointTopic(t *testing.T, dir string, topic []string) {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	fr, engines := localEngines(t, w, service.Config{Seed: 7, K: 10, BatchWindow: 0, CheckpointDir: dir})
	digestSearch(t, sha256.New(), fr, "gate-user", topic, 10)
	rep, err := engines[0].Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments == 0 {
		t.Fatal("the search left no state to checkpoint")
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
}

// searchTopic answers topic on a fresh engine over a fresh workload copy —
// built over dir's checkpoint when dir is set — and returns the digest, the
// engine's recovery counters and its work counters.
func searchTopic(t *testing.T, dir string, topic []string) (string, recovery.StatsSnapshot, service.Stats) {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	fr, engines := localEngines(t, w, service.Config{Seed: 7, K: 10, BatchWindow: 0, CheckpointDir: dir})
	defer fr.Close() //nolint:errcheck
	rs := engines[0].RecoveryStats()
	h := sha256.New()
	digestSearch(t, h, fr, "gate-user", topic, 10)
	return hex.EncodeToString(h.Sum(nil)), rs, fr.Stats(context.Background())
}

// TestImportRejectsCorruptSegments pins the decode half of the consistency
// gate: a checkpoint whose segment bytes were damaged — and republished
// with checksums that verify, so only the decoder can tell — is dropped at
// import, all of it, and the restarted engine's search re-derives the state
// by source replay, answering exactly what a never-recovered engine answers.
func TestImportRejectsCorruptSegments(t *testing.T) {
	topic := []string{"metabolism", "protein"}
	dir := t.TempDir()
	checkpointTopic(t, dir, topic)

	store, err := recovery.Open(filepath.Join(dir, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := store.Load()
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint to corrupt: %v", err)
	}
	segs := len(cp.Export.Segments)
	for i := range cp.Export.Segments {
		data := cp.Export.Segments[i].Data
		data[len(data)/2] ^= 0xff
	}
	if _, err := store.Write(cp.Export); err != nil {
		t.Fatal(err)
	}

	control, _, _ := searchTopic(t, "", topic)
	damaged, rs, st := searchTopic(t, dir, topic)
	if rs.SegmentsRecovered != 0 || rs.SegmentsDropped != int64(segs) {
		t.Fatalf("corrupt import: %d installed, %d dropped, want 0/%d", rs.SegmentsRecovered, rs.SegmentsDropped, segs)
	}
	if st.Work.MigrationDrops < int64(segs) {
		t.Fatalf("MigrationDrops = %d, want >= %d", st.Work.MigrationDrops, segs)
	}
	if control != damaged {
		t.Fatalf("gate rejection changed results: control=%s damaged=%s", control, damaged)
	}
}

// TestCrossInstanceImportGateReplays pins the consume half of the gate: a
// checkpoint recovered into a *different* engine instance (fresh workload
// copy, empty stream views — the restarted-process shape) decodes and
// stages, and the search that reaches the staged segments passes each
// through the gate: restored where it matches the new graph and stream
// views, dropped — counted as MigrationDrops — and re-derived by source
// replay where it does not. Either way the search must answer exactly what
// a never-recovered engine answers.
func TestCrossInstanceImportGateReplays(t *testing.T) {
	topic := []string{"metabolism", "protein"}
	dir := t.TempDir()
	checkpointTopic(t, dir, topic)

	control, _, _ := searchTopic(t, "", topic)
	target, rs, st := searchTopic(t, dir, topic)
	if rs.SegmentsRecovered == 0 {
		t.Fatalf("recovery staged nothing: %+v", rs)
	}
	if target != control {
		t.Fatalf("foreign import changed results: imported=%s control=%s", target, control)
	}
	if st.Work.MigrationDrops == 0 && st.Work.MigrationRestores == 0 {
		t.Fatal("imported segments neither restored nor dropped — the staged state was never touched")
	}
}

// TestCheckpointCarriesStagedSegments pins the carry-forward: a checkpoint
// taken after a warm restart but before any search has revived the staged
// segments must still hold them, or the store's garbage collection deletes
// the generation the restart recovered and the next restart comes up cold.
func TestCheckpointCarriesStagedSegments(t *testing.T) {
	dir := t.TempDir()
	checkpointTopic(t, dir, []string{"metabolism", "protein"})
	restart := func() int64 {
		t.Helper()
		w, err := workload.Bio()
		if err != nil {
			t.Fatal(err)
		}
		fr, engines := localEngines(t, w, service.Config{Seed: 7, K: 10, BatchWindow: 0, CheckpointDir: dir})
		installed := engines[0].RecoveryStats().SegmentsRecovered
		if _, err := engines[0].Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := fr.Close(); err != nil {
			t.Fatal(err)
		}
		return installed
	}
	first := restart()
	if first == 0 {
		t.Fatal("the first restart installed nothing; the case proves nothing")
	}
	if second := restart(); second != first {
		t.Fatalf("second restart installed %d segments, first %d", second, first)
	}
}
