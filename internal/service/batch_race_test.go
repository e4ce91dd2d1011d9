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

// TestBatchedExecutorUnderChurn drives admission batches across parallel
// shards with concurrent users, short-deadline cancellations racing
// delivery, and a memory budget forcing evictions between rounds.
// Cancellation can park a node between rounds of its merge and eviction can
// unlink the nodes a pooled scratch row came from, so both ledger dimensions
// — retained state and pooled scratch — must still balance against their
// O(graph) audits, and Close must leave no goroutines behind. The service
// suite runs under -race in CI, which is the point of this test.
func TestBatchedExecutorUnderChurn(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	svc := newLocal(t, w, service.Config{
		K:           10,
		Seed:        13,
		Shards:      2,
		BatchWindow: 2 * time.Millisecond,
		BatchSize:   3,
		// Small enough that the budget evicts constantly.
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
			rng := rand.New(rand.NewSource(int64(u) + 47))
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

	st := svc.Stats(context.Background())
	if completed == 0 {
		t.Fatalf("no search completed (failed=%d)", failed)
	}
	for _, sh := range st.Shards {
		if sh.StateRows != sh.StateRowsAudit {
			t.Fatalf("shard %d state ledger %d != audit %d — accounting corrupted under batched churn",
				sh.Shard, sh.StateRows, sh.StateRowsAudit)
		}
		if sh.ScratchRows != sh.ScratchRowsAudit {
			t.Fatalf("shard %d scratch ledger %d != audit %d — pooled rows leaked or double-freed",
				sh.Shard, sh.ScratchRows, sh.ScratchRowsAudit)
		}
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
