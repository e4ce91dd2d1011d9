package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
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
// that move state between them directly.
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

// TestMigrateTopicZeroExtraStreamTuples is the live-migration acceptance
// probe at test granularity: a topic searched, migrated by the front desk to
// the other engine and searched again must answer identically to the topic
// staying put AND cost zero extra source-stream tuples — the state traveled,
// so the sources are not re-read.
func TestMigrateTopicZeroExtraStreamTuples(t *testing.T) {
	topic := []string{"metabolism", "protein"}
	run := func(migrate bool) (string, int64, metrics.FleetSnapshot, int64) {
		w, err := workload.Bio()
		if err != nil {
			t.Fatal(err)
		}
		fr := newLocal(t, w, service.Config{
			Seed: 7, K: 10, Shards: 2, Router: service.RouterAffinity,
			BatchWindow: 0,
		})
		defer fr.Close() //nolint:errcheck

		h := sha256.New()
		res := digestSearch(t, h, fr, "mig-user", topic, 10)

		home := res.Shard
		if migrate {
			if err := fr.MigrateTopic(context.Background(), topic, home, 1-home); err != nil {
				t.Fatal(err)
			}
		}

		res = digestSearch(t, h, fr, "mig-user", topic, 10)
		if migrate && res.Shard != 1-home {
			t.Fatalf("repeat search ran on shard %d, want rehomed shard %d", res.Shard, 1-home)
		}
		st := fr.Stats(context.Background())
		return hex.EncodeToString(h.Sum(nil)), st.Work.StreamTuples, fr.Metrics().Snapshot(), st.Work.MigrationRestores
	}

	stayDigest, stayStream, _, _ := run(false)
	migDigest, migStream, fm, restores := run(true)

	if fm.Migrations != 1 || fm.MigrationSegs == 0 {
		t.Fatalf("migration exported no segments — the topic left no idle state behind: %+v", fm)
	}
	if fm.MigrationDrops != 0 {
		t.Fatalf("in-process migration: %d of %d segments dropped — the gate should accept all of them",
			fm.MigrationDrops, fm.MigrationSegs)
	}
	if restores == 0 {
		t.Fatal("migrated segments were never restored — the repeat search did not consume them")
	}
	if migDigest != stayDigest {
		t.Fatalf("migration changed results: stay=%s migrate=%s", stayDigest, migDigest)
	}
	if extra := migStream - stayStream; extra != 0 {
		t.Fatalf("migration cost %d extra source-stream tuples (stay=%d migrate=%d), want 0",
			extra, stayStream, migStream)
	}
}

// TestImportRejectsCorruptSegments pins the decode half of the consistency
// gate: an export whose segment bytes were damaged in flight is dropped at
// import — all of it — and the next search re-derives the state by source
// replay, answering exactly what an undisturbed service answers.
func TestImportRejectsCorruptSegments(t *testing.T) {
	topic := []string{"metabolism", "protein"}
	run := func(corrupt bool) string {
		w, err := workload.Bio()
		if err != nil {
			t.Fatal(err)
		}
		fr, engines := localEngines(t, w, service.Config{
			Seed: 7, K: 10, Shards: 2, Router: service.RouterAffinity,
			BatchWindow: 0,
		})
		defer fr.Close() //nolint:errcheck

		h := sha256.New()
		res := digestSearch(t, h, fr, "gate-user", topic, 10)

		if corrupt {
			home := res.Shard
			exp, err := engines[home].ExportTopic(topic)
			if err != nil {
				t.Fatal(err)
			}
			if len(exp.Segments) == 0 {
				t.Fatal("nothing exported to corrupt")
			}
			for i := range exp.Segments {
				data := exp.Segments[i].Data
				data[len(data)/2] ^= 0xff
			}
			installed, dropped, _, err := engines[1-home].ImportTopic(exp)
			if err != nil {
				t.Fatal(err)
			}
			if installed != 0 || dropped != len(exp.Segments) {
				t.Fatalf("corrupt import: %d installed, %d dropped, want 0/%d",
					installed, dropped, len(exp.Segments))
			}
			if st := fr.Stats(context.Background()); st.Work.MigrationDrops < int64(len(exp.Segments)) {
				t.Fatalf("MigrationDrops = %d, want >= %d", st.Work.MigrationDrops, len(exp.Segments))
			}
		}

		// The export discarded the source copy and the import dropped the
		// wire copy: the state is gone everywhere, and the repeat search must
		// quietly rebuild it from the sources.
		digestSearch(t, h, fr, "gate-user", topic, 10)
		return hex.EncodeToString(h.Sum(nil))
	}

	control := run(false)
	damaged := run(true)
	if control != damaged {
		t.Fatalf("gate rejection changed results: control=%s damaged=%s", control, damaged)
	}
}

// TestCrossInstanceImportGateReplays pins the consume half of the gate: an
// export installed into a *different* engine instance (fresh workload copy,
// empty stream views — the cross-process shape) decodes and stages, but the
// staged stream segments fail the stream-position check when a search tries
// to consume them. They must be dropped — counted as MigrationDrops — and
// the search must answer exactly what a never-imported engine answers.
func TestCrossInstanceImportGateReplays(t *testing.T) {
	topic := []string{"metabolism", "protein"}

	newSvc := func() (*fleet.Frontend, *service.Service) {
		w, err := workload.Bio()
		if err != nil {
			t.Fatal(err)
		}
		fr, engines := localEngines(t, w, service.Config{Seed: 7, K: 10, BatchWindow: 0})
		return fr, engines[0]
	}

	// Source engine: search the topic, export its retained state.
	src, srcEngine := newSvc()
	defer src.Close() //nolint:errcheck
	if _, err := src.Search(context.Background(), "xuser", topic, 10); err != nil {
		t.Fatal(err)
	}
	exp, err := srcEngine.ExportTopic(topic)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Segments) == 0 {
		t.Fatal("source exported no segments")
	}

	// Control: a fresh engine with no import at all.
	control, _ := newSvc()
	defer control.Close() //nolint:errcheck
	hControl := sha256.New()
	digestSearch(t, hControl, control, "xuser", topic, 10)

	// Target: a fresh engine that imports the foreign export first.
	target, targetEngine := newSvc()
	defer target.Close() //nolint:errcheck
	if _, _, _, err := targetEngine.ImportTopic(exp); err != nil {
		t.Fatal(err)
	}
	hTarget := sha256.New()
	digestSearch(t, hTarget, target, "xuser", topic, 10)

	if got, want := hex.EncodeToString(hTarget.Sum(nil)), hex.EncodeToString(hControl.Sum(nil)); got != want {
		t.Fatalf("foreign import changed results: imported=%s control=%s", got, want)
	}
	st := target.Stats(context.Background())
	if st.Work.MigrationDrops == 0 && st.Work.MigrationRestores == 0 {
		t.Fatal("imported segments neither restored nor dropped — the staged state was never touched")
	}
}

// TestMigrationRacingEviction runs live topic migrations concurrently with a
// search storm on a budgeted service — eviction, spill-format encode/decode
// and the consistency gate all racing — and requires the ledger audit to
// balance and Close to leave no goroutines behind. CI runs this under -race.
func TestMigrationRacingEviction(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	svc := newLocal(t, w, service.Config{
		K:            10,
		Seed:         17,
		Shards:       2,
		BatchWindow:  2 * time.Millisecond,
		BatchSize:    3,
		MemoryBudget: 800,
	})

	var pool [][]string
	for _, s := range w.Submissions {
		if len(s.UQ.Keywords) > 1 {
			pool = append(pool, s.UQ.Keywords)
		}
	}
	if len(pool) == 0 {
		t.Fatal("workload has no multi-keyword suite")
	}

	const users, requests = 4, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u) + 41))
			for i := 0; i < requests; i++ {
				kw := pool[rng.Intn(len(pool))]
				if _, err := svc.Search(context.Background(), fmt.Sprintf("churn%d", u), kw, 10); err == nil {
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}(u)
	}
	// Migration storm: bounce suite topics between the two shards while the
	// searches run. Failed exports/imports are fine (the topic may be
	// mid-flight); wrong answers or unbalanced ledgers are not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(97))
		for i := 0; i < 30; i++ {
			kw := pool[rng.Intn(len(pool))]
			from := rng.Intn(2)
			svc.MigrateTopic(context.Background(), kw, from, 1-from) //nolint:errcheck
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if completed == 0 {
		t.Fatal("no search completed under migration churn")
	}
	st := svc.Stats(context.Background())
	for _, sh := range st.Shards {
		if sh.StateRows != sh.StateRowsAudit {
			t.Fatalf("shard %d ledger %d != audit %d under migration churn",
				sh.Shard, sh.StateRows, sh.StateRowsAudit)
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before service, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
