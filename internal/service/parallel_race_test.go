package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestParallelExecutorUnderChurn drives shards running the intra-shard
// parallel executor (-workers 4) with many concurrent users, short-deadline
// cancellations racing execution, and a bounded memory budget forcing
// evictions between rounds — while the run's unlinks and ledger updates come
// from pool workers. The ledger must still balance against the O(graph)
// audit, searches must keep completing, and Close must leave no goroutines
// behind (the worker pools shut down with their shards). The service suite
// runs under -race in CI, which is the point of this test.
func TestParallelExecutorUnderChurn(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(w, service.Config{
		K:            10,
		Seed:         11,
		Shards:       2,
		Workers:      4,
		BatchWindow:  2 * time.Millisecond,
		BatchSize:    3,
		MemoryBudget: 800,
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

	const users, requests = 6, 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed, failed := 0, 0
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u) + 31))
			for i := 0; i < requests; i++ {
				kw := pool[rng.Intn(len(pool))]
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%2 == 1 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(25))*time.Millisecond)
				}
				_, err := svc.Search(ctx, fmt.Sprintf("user%d", u), kw, 10)
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				if err != nil {
					failed++
				} else {
					completed++
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()

	st := svc.Stats()
	if completed == 0 {
		t.Fatalf("no search completed (failed=%d)", failed)
	}
	rounds := int64(0)
	for _, sh := range st.Shards {
		if sh.StateRows != sh.StateRowsAudit {
			t.Fatalf("shard %d ledger %d != audit %d — accounting corrupted under parallel rounds",
				sh.Shard, sh.StateRows, sh.StateRowsAudit)
		}
		if sh.Parallel.Workers != 4 {
			t.Fatalf("shard %d parallel workers = %d, want 4", sh.Shard, sh.Parallel.Workers)
		}
		rounds += sh.Parallel.Rounds
	}
	// The affinity router may legitimately place every topic on one shard,
	// so rounds are required of the service, not of each shard.
	if rounds == 0 {
		t.Fatal("no shard recorded a scheduling round")
	}

	svc.Close()
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
