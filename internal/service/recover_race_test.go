package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestCheckpointRacingEvictionAndSpill churns every state-moving mechanism
// at once: a bounded-budget spill-enabled service with a fast periodic
// checkpoint loop, concurrent searches (half racing tight deadlines), and
// explicit checkpoints. The checkpoint capture runs on the executor
// goroutine, so none of this may corrupt the ledger, tear a manifest, or
// leak goroutines — the invariants the race detector watches (the service
// suite runs under -race in CI).
func TestCheckpointRacingEvictionAndSpill(t *testing.T) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	cpDir := t.TempDir()
	svc, engines := localEngines(t, w, service.Config{
		K:                  15,
		Seed:               7,
		Shards:             2,
		BatchWindow:        2 * time.Millisecond,
		BatchSize:          3,
		MemoryBudget:       600,
		EvictPolicy:        "benefit",
		SpillDir:           filepath.Join(t.TempDir(), "spill"),
		CheckpointDir:      cpDir,
		CheckpointInterval: 10 * time.Millisecond,
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

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Explicit checkpoints race the periodic loop and the executor.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := engines[i%2].Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	const users, requests = 6, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u) + 42))
			for i := 0; i < requests; i++ {
				kw := pool[rng.Intn(len(pool))]
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%2 == 1 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
				}
				_, err := svc.Search(ctx, fmt.Sprintf("user%d", u), kw, 15)
				if cancel != nil {
					cancel()
				}
				if err == nil {
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}(u)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if completed == 0 {
		t.Fatal("no search completed under churn")
	}
	// Close first: it stops the checkpoint loops, so the counters read below
	// can no longer move between one read and the next.
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := svc.Stats(context.Background())
	for _, sh := range st.Shards {
		if sh.StateRows != sh.StateRowsAudit {
			t.Fatalf("shard %d ledger %d != audit %d — checkpoint capture corrupted accounting",
				sh.Shard, sh.StateRows, sh.StateRowsAudit)
		}
	}
	if st.Recovery.CheckpointsWritten == 0 {
		t.Fatal("no checkpoint generation was written under churn")
	}

	// Every published generation must parse and verify cleanly — a torn
	// manifest or segment under churn would surface here as Dropped > 0.
	for shard := 0; shard < 2; shard++ {
		store, err := recovery.Open(filepath.Join(cpDir, fmt.Sprintf("shard-%d", shard)))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := store.Load()
		if err != nil {
			t.Fatalf("shard %d checkpoint unreadable: %v", shard, err)
		}
		if cp == nil {
			t.Fatalf("shard %d has no loadable generation", shard)
		}
		if cp.Dropped > 0 {
			t.Fatalf("shard %d checkpoint has %d torn/corrupt segments", shard, cp.Dropped)
		}
	}

	// The checkpoint loops and executors must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
