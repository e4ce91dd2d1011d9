// Command qsys-shard runs one shard process of the distributed serving tier:
// a single engine (plan graph, ATC, query state manager) behind the fleet RPC
// surface, fronted by a stateless qsys-serve front-end.
//
// The shard admits only fully expanded user queries — candidate expansion,
// per-user scoring coefficients and UQ ids are front-end state. -shard-id
// sets service.Config.ShardIDOffset, which seeds the engine identically to
// engine <id> of a single-process qsys-serve -shards N with the same -seed:
// result digests are byte-identical whether the fleet lives in one process
// or N.
//
// Usage:
//
//	qsys-shard [-addr :8091] [-shard-id 0] [-workload bio|gus|pfam]
//	           [-instance 1] [-seed 1] [-window 25ms] [-batch 5]
//	           [-k 50] [-memory-budget 0]
//	           [-evict-policy lru|benefit] [-spill-dir DIR] [-realtime]
//	           [-max-pending 0] [-deadline 0] [-adaptive-window]
//	           [-drain-deadline 0] [-recover-dir DIR] [-checkpoint-interval 5s]
//
// Endpoints:
//
//	POST /rpc/search          expanded user query → ranked answers
//	GET  /rpc/stats           engine + serving counters
//	GET  /rpc/health          health/drain/recovery state
//	GET  /rpc/recovered       queries journaled in flight at the last crash
//	POST /rpc/migrate/export  serialize + discard a topic's idle state
//	POST /rpc/migrate/import  stage a migrated topic behind the consistency gate
//	POST /rpc/drain           stop admissions, finish in-flight, hand state off
//
// -recover-dir enables the crash-recovery tier: retained plan state is
// checkpointed there every -checkpoint-interval (atomic generation-numbered
// manifests), admissions are journaled, and a restart over the same directory
// warm-starts — the newest checkpoint is imported through the consistency
// gate while /rpc/health reports "recovering", then the shard flips to
// "ready". Queries the journal proves were in flight at the crash surface on
// /rpc/recovered for the front-end's re-dispatch.
//
// SIGTERM/SIGINT drains gracefully: new searches are rejected as retryable,
// in-flight searches finish, and the engine shuts down with its state-teardown
// error logged rather than swallowed. SIGKILL is the crash the recovery tier
// is for.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/state"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	shardID := flag.Int("shard-id", 0, "fleet slot this process serves: seeds the engine as shard <id> of an equivalent single-process service")
	wl := flag.String("workload", "bio", "workload: bio, gus, pfam")
	instance := flag.Int("instance", 1, "GUS instance (1-4)")
	seed := flag.Uint64("seed", 1, "deterministic delay/scoring seed (must match the front-end's)")
	window := flag.Duration("window", 25*time.Millisecond, "admission batch window (0 = admit immediately)")
	batch := flag.Int("batch", 5, "admission batch size trigger (negative = window only)")
	k := flag.Int("k", 50, "default answers per search")
	budget := flag.Int("memory-budget", 0, "retained-state budget in rows per engine (0 = unbounded)")
	policy := flag.String("evict-policy", "lru", "eviction policy under the budget: lru or benefit")
	spillDir := flag.String("spill-dir", "", "spill evicted plan segments under this path instead of discarding (removed on shutdown)")
	realtime := flag.Bool("realtime", false, "sleep simulated delays for real")
	maxPending := flag.Int("max-pending", 0, "admission: bound this shard's queue, shedding beyond it as retryable 503 + Retry-After (0 = unbounded)")
	deadline := flag.Duration("deadline", 0, "admission: per-search latency budget; a search past it is canceled mid-merge and shed non-retryably (0 = off)")
	adaptiveWindow := flag.Bool("adaptive-window", false, "admission: replace the fixed batch window with a control loop over queue depth and recent latency (bounded by -window)")
	maxInFlight := flag.Int("max-inflight", 0, "admission: bound concurrently executing merges so deadline shedding can trim the queue while admitted searches still finish in budget (0 = unbounded)")
	drainDeadline := flag.Duration("drain-deadline", 0, "bound the drain's wait for in-flight searches; past it they are aborted so the state handoff completes (0 = 60s default)")
	recoverDir := flag.String("recover-dir", "", "durable checkpoint + admission-journal directory; enables crash recovery and warm restart over the same path (survives shutdown)")
	cpInterval := flag.Duration("checkpoint-interval", 5*time.Second, "period of the checkpoint loop under -recover-dir (0 = checkpoint only on demand)")
	flag.Parse()

	if _, err := state.ParsePolicy(*policy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *shardID < 0 {
		fmt.Fprintln(os.Stderr, "qsys-shard: -shard-id must be >= 0")
		os.Exit(2)
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "qsys-shard: -spill-dir: %v\n", err)
			os.Exit(2)
		}
	}

	w, err := workload.ByName(*wl, *instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	svc := service.New(w, service.Config{
		K:             *k,
		Seed:          *seed,
		BatchWindow:   *window,
		BatchSize:     *batch,
		Shards:        1,
		ShardIDOffset: *shardID,
		MemoryBudget:  *budget,
		EvictPolicy:   *policy,
		SpillDir:      *spillDir,
		RealTime:      *realtime,
		CheckpointDir: *recoverDir,
		CheckpointInterval: func() time.Duration {
			if *recoverDir == "" {
				return 0
			}
			return *cpInterval
		}(),
		Admission: admission.Config{
			MaxPending:     *maxPending,
			Deadline:       *deadline,
			MaxInFlight:    *maxInFlight,
			AdaptiveWindow: *adaptiveWindow,
			WindowMax:      *window,
		},
	})
	shard := fleet.NewShardServer(svc)
	shard.DrainDeadline = *drainDeadline
	if *recoverDir != "" {
		// Listen in the recovering state so probes observe the transition:
		// health says "recovering" (unrouted, searches refused as retryable)
		// until the checkpoint import lands, then flips to "ready".
		shard.SetRecovering(true)
	}

	server := &http.Server{Addr: *addr, Handler: shard.Handler()}
	go func() {
		log.Printf("qsys-shard: slot %d, workload %s on %s (window=%v batch=%d)",
			*shardID, w.Name, *addr, *window, *batch)
		if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	if *recoverDir != "" {
		rep, err := shard.Recover()
		if err != nil {
			log.Printf("qsys-shard: recover: %v", err)
		} else if rep.Generation > 0 {
			log.Printf("qsys-shard: slot %d warm-started from checkpoint generation %d: %d segments installed, %d dropped (%d rows); %d journaled aborts",
				*shardID, rep.Generation, rep.Installed, rep.Dropped, rep.Rows, len(svc.RecoveredAborts()))
		} else {
			log.Printf("qsys-shard: slot %d cold start, checkpointing to %s every %v", *shardID, *recoverDir, *cpInterval)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("qsys-shard: slot %d draining", *shardID)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	// Drain first — new searches 503 as retryable while in-flight ones
	// finish — then stop the listener and tear the engine down.
	if _, err := shard.Drain(shutdownCtx); err != nil {
		log.Printf("qsys-shard: drain: %v", err)
	}
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Printf("qsys-shard: http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Printf("qsys-shard: state teardown: %v", err)
	}
	log.Printf("qsys-shard: slot %d bye", *shardID)
}
