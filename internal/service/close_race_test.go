package service_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestStatsRacingClose calls Stats while Close tears the engine down, then
// twice at once after it has: once the executor has exited, a Stats closure
// runs on its caller's goroutine, and Close's teardown resets the spill
// index that Stats reads. Both must be serialised; the race detector (the
// service suite runs under -race in CI) fails the test if they are not.
func TestStatsRacingClose(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(w, service.Config{Seed: 7, K: 10, MemoryBudget: 40, SpillDir: filepath.Join(t.TempDir(), "spill")})
	for i, s := range w.Submissions[:min(3, len(w.Submissions))] {
		uq, err := svc.Instantiate(s.UQ.ID, s.UQ.Keywords, 10, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.SearchUQ(context.Background(), uq); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Shards[0].Spill.Resident == 0 {
		t.Fatalf("the searches left no segment on disk (%+v): the teardown has nothing to reset", st.Shards[0].Spill)
	}
	var wg sync.WaitGroup
	stats := func() {
		defer wg.Done()
		svc.Stats()
	}
	wg.Add(1)
	go stats()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	go stats()
	go stats()
	wg.Wait()
}
