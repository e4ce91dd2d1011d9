// Concurrent demonstrates genuinely concurrent keyword searches sharing one
// plan graph through one engine behind the front desk (fleet.NewLocal): many
// user goroutines pose searches at the same time, the admission window groups the arrivals into batches, and
// the executor drives them over shared source streams. It contrasts no
// admission window (every query admitted alone) against a positive window
// (concurrent arrivals co-admitted) under a bounded state budget — the
// serving-layer analogue of the paper's SINGLE-OPT vs BATCH-OPT comparison
// (§3, Figure 9).
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	users    = 8
	requests = 6
	budget   = 500 // rows of retained state per engine (§6.3 eviction)
)

func main() {
	fmt.Printf("GUS instance 1: %d users x %d concurrent searches, state budget %d rows\n\n",
		users, requests, budget)

	type outcome struct {
		window  time.Duration
		stats   service.Stats
		latency time.Duration // mean wall latency
	}
	var outcomes []outcome
	for _, window := range []time.Duration{0, 25 * time.Millisecond} {
		w, err := workload.GUS(1, workload.GUSScaleDefault())
		if err != nil {
			log.Fatal(err)
		}
		fr, err := fleet.NewLocal(w, service.Config{
			K:            20,
			BatchWindow:  window,
			BatchSize:    5,
			MemoryBudget: budget,
		})
		if err != nil {
			log.Fatal(err)
		}

		var (
			wg  sync.WaitGroup
			mu  sync.Mutex
			sum time.Duration
			n   int
		)
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				rng := dist.New(uint64(u)*977 + 11)
				zipf := dist.NewZipf(rng, len(w.Submissions), 0.8)
				for i := 0; i < requests; i++ {
					kw := w.Submissions[zipf.Next()].UQ.Keywords
					t0 := time.Now()
					res, err := fr.Search(context.Background(), fmt.Sprintf("user%d", u), kw, 20)
					if err != nil {
						log.Fatalf("user %d: %v", u, err)
					}
					mu.Lock()
					sum += time.Since(t0)
					n++
					mu.Unlock()
					if u == 0 && i == 0 {
						fmt.Printf("  window %-5v: %s %v -> %d answers (rode a batch of %d, %d of %d networks executed)\n",
							window, res.ID, res.Keywords, len(res.Answers), res.BatchSize,
							res.ExecutedNetworks, res.CandidateNetworks)
					}
				}
			}(u)
		}
		wg.Wait()
		st := fr.Stats(context.Background())
		fr.Close() //nolint:errcheck // the engines hold no spill directory
		outcomes = append(outcomes, outcome{window: window, stats: st, latency: sum / time.Duration(n)})
	}

	fmt.Printf("\n%-12s %12s %12s %10s %10s %10s %10s\n",
		"window", "streamTup", "replayed", "shared", "batches", "occupancy", "meanLat")
	for _, o := range outcomes {
		fmt.Printf("%-12v %12d %12d %9.1f%% %10d %10.2f %10v\n",
			o.window, o.stats.Work.StreamTuples, o.stats.Work.ReplayTuples,
			100*o.stats.SharedFraction(), o.stats.Service.Batches,
			o.stats.Service.BatchOccupancy.Mean, o.latency.Round(time.Millisecond))
	}
	fmt.Println("\nWith the admission window, concurrently arriving searches are co-admitted into one")
	fmt.Println("epoch and drive the same live source streams, so under the bounded state budget the")
	fmt.Println("service reads fewer source tuples for the same offered load.")
}
