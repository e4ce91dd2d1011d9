// Command qsys-serve runs the Q System as a network service: an HTTP JSON
// API over the concurrent admission-and-execution subsystem of
// internal/service. Concurrently arriving searches are collected into
// admission batches, multi-query-optimized together (§3) and executed over
// shared plan graphs (§4–§6) — the paper's middleware as an online daemon.
//
// Both of its modes run one fleet.Frontend — candidate expansion, rate
// limits, shard placement (the affinity router), health-checked routing
// and stats aggregation — over N engines:
//
//   - Single-process (default): -shards engines live in this process.
//   - Front-end (-fleet url,url,...): qsys-shard processes own the engines,
//     and the flags that configure one (-window, -memory-budget, ...) are
//     refused here.
//
// Result digests are byte-identical across the two modes at equal seed.
//
// Usage:
//
//	qsys-serve [-addr :8080] [-workload bio|gus|pfam] [-instance 1]
//	           [-window 25ms] [-batch 5] [-shards 1]
//	           [-router affinity|hash] [-k 50] [-memory-budget 0]
//	           [-evict-policy lru|benefit] [-spill-dir DIR] [-realtime]
//	           [-fleet URL,URL,...] [-probe-interval 2s]
//	           [-user-rate 0] [-total-rate 0] [-max-pending 0]
//	           [-deadline 0] [-max-inflight 0]
//
// The admission flags enable overload control: per-user token buckets with
// fair arbitration under a global rate (shed as retryable 503 + Retry-After),
// a bounded per-shard queue, deadline shedding that cancels merges past the
// budget, and a bound on concurrently executing merges. The rate limits run
// at this process's front desk; queue and deadline control run inside each
// engine.
//
// Endpoints:
//
//	POST /search       {"user":"alice","keywords":["protein","gene"],"k":10}
//	GET  /stats        service + per-shard execution counters
//	GET  /healthz      per-shard health/drain state (503 when no shard serves)
//	GET  /debug/pprof  standard Go profiling (CPU, heap, goroutines, ...)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

func main() {
	f := service.Flags{Addr: ":8080", Workload: "bio", Instance: 1, Config: service.Config{
		K: 50, Seed: 1, BatchWindow: 25 * time.Millisecond, BatchSize: 5, Shards: 1,
		Router: service.RouterAffinity, EvictPolicy: "lru",
	}}
	f.Bind(flag.CommandLine, service.ServerFlags|service.FrontDeskFlags)
	fleetList := flag.String("fleet", "", "comma-separated qsys-shard endpoints; enables front-end mode (this process runs no engine)")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "front-end health-probe period (0 disables background probing)")
	if err := f.Parse(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qsys-serve:", err)
		os.Exit(2)
	}
	cfg := f.Config
	if set := f.EngineFlagsSet(); *fleetList != "" && len(set) > 0 {
		fmt.Fprintf(os.Stderr, "qsys-serve: -fleet mode runs no engine, so it refuses engine flags: %s\n", strings.Join(set, " "))
		os.Exit(2)
	}

	w, err := workload.ByName(f.Workload, f.Instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var fr *fleet.Frontend
	if *fleetList != "" {
		var backends []fleet.Backend
		fm := &metrics.Fleet{}
		for _, ep := range strings.Split(*fleetList, ",") {
			ep = strings.TrimSpace(ep)
			if ep == "" {
				continue
			}
			backends = append(backends, fleet.NewClient(ep, fleet.ClientConfig{Metrics: fm}))
		}
		fr, err = fleet.NewFrontend(w, fleet.FrontendConfig{
			Service:       cfg,
			ProbeInterval: *probeEvery,
			Metrics:       fm,
		}, backends)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		log.Printf("qsys-serve: front-end for %d shard endpoints (router=%s)",
			len(backends), cfg.Router)
	} else {
		fr, err = fleet.NewLocal(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		log.Printf("qsys-serve: workload %s (window=%v batch=%d shards=%d router=%s)",
			w.Name, cfg.BatchWindow, cfg.BatchSize, cfg.Shards, cfg.Router)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", func(rw http.ResponseWriter, req *http.Request) {
		var in struct {
			User     string   `json:"user"`
			Keywords []string `json:"keywords"`
			K        int      `json:"k"`
		}
		if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
			httpError(rw, http.StatusBadRequest, err)
			return
		}
		if in.User == "" {
			in.User = "anonymous"
		}
		view, err := fr.Search(req.Context(), in.User, in.Keywords, in.K)
		if err != nil {
			if shed := shedOf(err); shed != nil {
				// Overload sheds keep their provenance end to end: reason,
				// Retry-After and the retryable claim reach the public client
				// whether the shed happened at this process's front desk or
				// deep in a shard of the fleet.
				fleet.WriteShedError(rw, shed)
				return
			}
			httpError(rw, searchStatus(err), err)
			return
		}
		writeJSON(rw, view)
	})
	mux.HandleFunc("GET /stats", func(rw http.ResponseWriter, req *http.Request) {
		writeJSON(rw, fr.Stats(req.Context()))
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, req *http.Request) {
		hz := fr.Healthz(req.Context())
		rw.Header().Set("Content-Type", "application/json")
		if !hz.OK {
			rw.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(hz) //nolint:errcheck
	})
	// Standard Go profiling endpoints, so where a live server spends its
	// shard goroutines' time is inspectable with `go tool pprof`.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	server := &http.Server{Addr: f.Addr, Handler: mux}
	go func() {
		log.Printf("qsys-serve: listening on %s", f.Addr)
		if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("qsys-serve: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Printf("qsys-serve: http shutdown: %v", err)
	}
	// Surface the engines' state-teardown errors: a serving process must log
	// disk problems, not leak spill segments silently.
	if err := fr.Close(); err != nil {
		log.Printf("qsys-serve: close: %v", err)
	}
	log.Print("qsys-serve: bye")
}

// shedOf extracts the admission shed behind a search failure, if any: either
// an in-process *admission.ShedError (the front desk's rate limiter, or a
// local engine's queue), or a shard's shed relayed by the front-end as an
// *fleet.RPCError that kept the reason and hint.
func shedOf(err error) *admission.ShedError {
	var shed *admission.ShedError
	if errors.As(err, &shed) {
		return shed
	}
	var rpcErr *fleet.RPCError
	if errors.As(err, &rpcErr) && rpcErr.Shed() {
		return &admission.ShedError{Reason: rpcErr.Reason, RetryAfter: rpcErr.RetryAfter}
	}
	return nil
}

func searchStatus(err error) int {
	var rpcErr *fleet.RPCError
	switch {
	case errors.Is(err, service.ErrClosed), errors.Is(err, fleet.ErrCircuitOpen),
		errors.Is(err, fleet.ErrNoHealthyShard):
		return http.StatusServiceUnavailable
	case errors.As(err, &rpcErr):
		return rpcErr.Status
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

func httpError(rw http.ResponseWriter, code int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("qsys-serve: encode: %v", err)
	}
}
