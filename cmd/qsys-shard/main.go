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
//	           [-max-pending 0] [-deadline 0] [-max-inflight 0]
//	           [-drain-deadline 0] [-recover-dir DIR] [-checkpoint-interval 5s]
//
// Endpoints (a search is one binary frame each way, the rest JSON):
//
//	POST /rpc/search     expanded user query frame → ranked answers frame
//	GET  /rpc/stats      engine + serving counters
//	GET  /rpc/health     health/drain/recovery state
//	GET  /rpc/recovered  queries journaled in flight at the last crash
//	POST /rpc/drain      stop admissions, finish in-flight, answer with health
//
// -recover-dir enables the crash-recovery tier: retained plan state is
// checkpointed there every -checkpoint-interval (atomic generation-numbered
// manifests), admissions are journaled, and a restart over the same directory
// warm-starts — the engine imports the newest checkpoint through the
// consistency gate as it is built, before the shard listens, so the shard is
// "ready" from its first probe. Queries the journal proves were in flight at
// the crash surface on /rpc/recovered for the front-end's re-dispatch.
//
// SIGTERM/SIGINT drains gracefully: new searches are rejected as retryable,
// in-flight searches finish, and the engine shuts down with its state-teardown
// error logged rather than swallowed. The drain leaves the retained state in
// place, so the last checkpoint stays warm and a restart over the same
// -recover-dir recovers it. SIGKILL is the crash the recovery tier is for.
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

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/workload"
)

func main() {
	f := service.Flags{Addr: ":8091", Workload: "bio", Instance: 1, Config: service.Config{
		K: 50, Seed: 1, BatchWindow: 25 * time.Millisecond, BatchSize: 5,
		EvictPolicy: "lru", CheckpointInterval: 5 * time.Second,
	}}
	f.Bind(flag.CommandLine, service.ServerFlags|service.ShardFlags)
	drainDeadline := flag.Duration("drain-deadline", 0, "bound the drain's wait for in-flight searches; past it they are aborted (0 = 60s default)")
	if err := f.Parse(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qsys-shard:", err)
		os.Exit(2)
	}
	cfg := f.Config
	id := cfg.ShardIDOffset

	w, err := workload.ByName(f.Workload, f.Instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	svc := service.New(w, cfg)
	shard := fleet.NewShardServer(svc)
	shard.DrainDeadline = *drainDeadline
	if rs := svc.RecoveryStats(); rs.CheckpointsLoaded > 0 {
		log.Printf("qsys-shard: slot %d warm-started from checkpoint generation %d: %d segments installed, %d dropped; %d journaled aborts",
			id, rs.Generation, rs.SegmentsRecovered, rs.SegmentsDropped, rs.JournaledAborts)
	} else if rs.Enabled {
		log.Printf("qsys-shard: slot %d cold start, checkpointing to %s every %v", id, cfg.CheckpointDir, cfg.CheckpointInterval)
	}

	server := &http.Server{Addr: f.Addr, Handler: shard.Handler()}
	go func() {
		log.Printf("qsys-shard: slot %d, workload %s on %s (window=%v batch=%d)",
			id, w.Name, f.Addr, cfg.BatchWindow, cfg.BatchSize)
		if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("qsys-shard: slot %d draining", id)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	// Drain first — new searches 503 as retryable while in-flight ones
	// finish — then stop the listener and tear the engine down.
	if err := shard.Drain(shutdownCtx); err != nil {
		log.Printf("qsys-shard: drain: %v", err)
	}
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Printf("qsys-shard: http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Printf("qsys-shard: state teardown: %v", err)
	}
	log.Printf("qsys-shard: slot %d bye", id)
}
