package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestCancellationRacingEvictionAndSpill drives a bounded-budget,
// spill-enabled service with many concurrent users whose contexts keep
// expiring mid-flight, so cancellations (Forget → unlink → park)
// interleave with evictions spilling and dropping the parked segments. The
// run must not deadlock, double-release, or corrupt the ledger: every shard's
// running total must equal the O(graph) audit at the end, and Close must
// reclaim every spill segment. This is the §6.3 lifecycle test the race
// detector watches (the service suite runs under -race in CI).
func TestCancellationRacingEvictionAndSpill(t *testing.T) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	spillDir := filepath.Join(t.TempDir(), "spill")
	svc := newLocal(t, w, service.Config{
		K:            15,
		Seed:         7,
		Shards:       2,
		BatchWindow:  2 * time.Millisecond,
		BatchSize:    3,
		MemoryBudget: 600,
		SpillDir:     spillDir,
	})

	var pool [][]string
	for _, s := range w.Submissions {
		if len(s.UQ.Keywords) > 0 {
			pool = append(pool, s.UQ.Keywords)
		}
	}
	if len(pool) == 0 {
		t.Fatal("workload has no keyword suite")
	}

	const users, requests = 6, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed, canceled := 0, 0
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u) + 99))
			for i := 0; i < requests; i++ {
				kw := pool[rng.Intn(len(pool))]
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%2 == 1 {
					// Half the requests race a tight deadline against
					// admission and execution.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
				}
				_, err := svc.Search(ctx, fmt.Sprintf("user%d", u), kw, 15)
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				if err != nil {
					canceled++
				} else {
					completed++
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()

	st := svc.Stats(context.Background())
	if completed == 0 {
		t.Fatalf("no search completed (canceled=%d)", canceled)
	}
	evictions, spilled := 0, int64(0)
	for _, sh := range st.Shards {
		if sh.StateRows != sh.StateRowsAudit {
			t.Fatalf("shard %d ledger %d != audit %d — accounting corrupted",
				sh.Shard, sh.StateRows, sh.StateRowsAudit)
		}
		if sh.StateRows < 0 {
			t.Fatalf("shard %d negative resident state %d", sh.Shard, sh.StateRows)
		}
		evictions += sh.Evictions
		spilled += sh.Spill.SegmentsWritten
	}
	if evictions == 0 || spilled == 0 {
		t.Fatalf("%d evictions, %d segments spilled: the budget never bit", evictions, spilled)
	}

	svc.Close()
	// Close reclaimed every shard's segments; only (possibly) the empty
	// parent directory may remain.
	var leaked []string
	filepath.Walk(spillDir, func(path string, info os.FileInfo, err error) error { //nolint:errcheck
		if err == nil && info != nil && !info.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		t.Fatalf("spill segments leaked after Close: %v", leaked)
	}

	// A closed service still answers Stats and rejects new work cleanly.
	if _, err := svc.Search(context.Background(), "late", pool[0], 5); err == nil {
		t.Fatal("closed service accepted a search")
	}
}
