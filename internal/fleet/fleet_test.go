package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

var fleetTopics = [][]string{
	{"metabolism", "protein"},
	{"membrane", "gene"},
	{"plasma membrane", "protein"},
	{"metabolism", "gene"},
	{"metabolism", "protein"},
	{"membrane", "gene"},
}

// newShardHTTP starts a shard engine for fleet slot `slot` behind a real HTTP
// server, as qsys-shard would run it.
func newShardHTTP(t *testing.T, slot int, seed uint64) (*httptest.Server, *fleet.ShardServer) {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(w, service.Config{
		Seed: seed, K: 10, Shards: 1, ShardIDOffset: slot,
		BatchWindow: 0,
	})
	ss := fleet.NewShardServer(svc)
	srv := httptest.NewServer(ss.Handler())
	t.Cleanup(func() { srv.Close(); ss.Close() })
	return srv, ss
}

func newTestFrontend(t *testing.T, seed uint64, servers []*httptest.Server, cfg fleet.FrontendConfig) *fleet.Frontend {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	var backends []fleet.Backend
	for _, srv := range servers {
		backends = append(backends, fleet.NewClient(srv.URL, fleet.ClientConfig{
			MaxRetries:   2,
			RetryBackoff: 2 * time.Millisecond,
			Metrics:      cfg.Metrics,
		}))
	}
	if cfg.Service.Seed == 0 {
		cfg.Service = service.Config{Seed: seed, K: 10, Router: service.RouterAffinity}
	}
	fr, err := fleet.NewFrontend(w, cfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fr.Close() }) //nolint:errcheck
	return fr
}

// TestFleetDigestParityHTTP pins the HTTP hop end to end: the same seeded
// search sequence answered by two engines in this process and by a front-end
// over two shard HTTP servers must digest byte-identically — both sides run
// the same Frontend, so only the hop and the wire codecs can differ.
func TestFleetDigestParityHTTP(t *testing.T) {
	const seed = 11

	// Single-process control.
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	single, err := fleet.NewLocal(w, service.Config{
		Seed: seed, K: 10, Shards: 2, Router: service.RouterAffinity,
		BatchWindow: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close() //nolint:errcheck
	hSingle := sha256.New()
	for _, kw := range fleetTopics {
		view, err := single.Search(context.Background(), "parity", kw, 10)
		if err != nil {
			t.Fatal(err)
		}
		fleet.DigestView(hSingle, view)
	}

	// Distributed run: two shard processes (distinct workload instances —
	// generation is seeded, so the copies are byte-equivalent) + front-end.
	srv0, _ := newShardHTTP(t, 0, seed)
	srv1, _ := newShardHTTP(t, 1, seed)
	fr := newTestFrontend(t, seed, []*httptest.Server{srv0, srv1}, fleet.FrontendConfig{})
	hMulti := sha256.New()
	for _, kw := range fleetTopics {
		view, err := fr.Search(context.Background(), "parity", kw, 10)
		if err != nil {
			t.Fatal(err)
		}
		if view.Shard < 0 || view.Shard > 1 {
			t.Fatalf("result claims shard %d of a 2-slot fleet", view.Shard)
		}
		fleet.DigestView(hMulti, view)
	}

	got, want := hex.EncodeToString(hMulti.Sum(nil)), hex.EncodeToString(hSingle.Sum(nil))
	if got != want {
		t.Fatalf("multi-process digest %s != single-process digest %s", got, want)
	}
}

// TestFleetHTTPShardsGraftDirectly runs the parity test's fleet — two shard
// servers behind an HTTP front-end — over its topics three times. A shard
// decodes every query body afresh, and a repeat must still be grafted from its
// plan-cache entry's graft record rather than re-factorized.
func TestFleetHTTPShardsGraftDirectly(t *testing.T) {
	const seed = 11
	srv0, _ := newShardHTTP(t, 0, seed)
	srv1, _ := newShardHTTP(t, 1, seed)
	fr := newTestFrontend(t, seed, []*httptest.Server{srv0, srv1}, fleet.FrontendConfig{})
	for pass := 0; pass < 3; pass++ {
		for _, kw := range fleetTopics {
			if _, err := fr.Search(context.Background(), "parity", kw, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	var direct int64
	for _, sh := range fr.Stats(context.Background()).Shards {
		direct += sh.PlanCache.DirectGrafts
	}
	if direct == 0 {
		t.Fatal("no shard grafted a repeated search directly")
	}
}

// TestDrainRejectsRetryablyAndFrontendFailsOver pins the drain contract: a
// draining shard turns searches away as retryable 503s, and the front-end
// routes the search to a healthy shard instead of failing it.
func TestDrainRejectsRetryablyAndFrontendFailsOver(t *testing.T) {
	srv0, _ := newShardHTTP(t, 0, 5)
	srv1, ss1 := newShardHTTP(t, 1, 5)
	fr := newTestFrontend(t, 5, []*httptest.Server{srv0, srv1}, fleet.FrontendConfig{})

	// Warm both shards so the router has real placements.
	for _, kw := range fleetTopics {
		if _, err := fr.Search(context.Background(), "drainer", kw, 5); err != nil {
			t.Fatal(err)
		}
	}

	if err := ss1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ss1.Draining() {
		t.Fatal("shard does not report draining")
	}

	// A direct client search against the draining shard must surface a
	// retryable RPC rejection (after its bounded retries).
	c := fleet.NewClient(srv1.URL, fleet.ClientConfig{MaxRetries: 1, RetryBackoff: time.Millisecond})
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	exp2 := service.NewExpander(w, service.Config{Seed: 5, K: 5})
	uq, err := exp2.Expand("drainer", []string{"metabolism", "protein"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Search(context.Background(), uq)
	var rpcErr *fleet.RPCError
	if !errors.As(err, &rpcErr) || rpcErr.Status != 503 || !rpcErr.Retryable {
		t.Fatalf("draining shard answered %v, want retryable 503", err)
	}

	// Every topic — including ones previously homed on shard 1 — must still
	// answer through the front-end.
	for _, kw := range fleetTopics {
		view, err := fr.Search(context.Background(), "drainer", kw, 5)
		if err != nil {
			t.Fatalf("search %v after drain: %v", kw, err)
		}
		if view.Shard == 1 {
			t.Fatalf("search %v routed to the draining shard", kw)
		}
	}

	// The aggregated healthz must show shard 1 draining and the fleet OK.
	hz := fr.Healthz(context.Background())
	if !hz.OK {
		t.Fatal("fleet healthz not OK with one healthy shard")
	}
	if !hz.Shards[1].Draining || hz.Shards[1].Healthy {
		t.Fatalf("healthz shard 1 = %+v, want draining/unhealthy", hz.Shards[1])
	}
	if !hz.Shards[0].Healthy {
		t.Fatalf("healthz shard 0 = %+v, want healthy", hz.Shards[0])
	}
}

// TestDrainKeepsCheckpointWarm pins what a graceful drain leaves behind: the
// drained shard keeps its retained state, so a checkpoint taken between the
// drain and Close (the periodic loop can tick there) publishes the warm
// generation a restart recovers, not an empty one. POST /rpc/drain answers
// with the shard's health.
func TestDrainKeepsCheckpointWarm(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(w, service.Config{Seed: 5, K: 10, BatchWindow: 0, CheckpointDir: t.TempDir()})
	ss := fleet.NewShardServer(svc)
	srv := httptest.NewServer(ss.Handler())
	t.Cleanup(func() { srv.Close(); ss.Close() })
	fr := newTestFrontend(t, 5, []*httptest.Server{srv}, fleet.FrontendConfig{})
	if _, err := fr.Search(context.Background(), "drainer", []string{"metabolism", "protein"}, 10); err != nil {
		t.Fatal(err)
	}
	before, err := svc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if before.Segments == 0 {
		t.Fatal("the search left no state to checkpoint; the case proves nothing")
	}

	resp, err := http.Post(srv.URL+"/rpc/drain", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv fleet.HealthView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !hv.Draining || hv.Healthy || hv.State != "draining" {
		t.Fatalf("POST /rpc/drain answered %d %+v, want 200 with a draining health view", resp.StatusCode, hv)
	}

	after, err := svc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if after.Segments != before.Segments || after.Rows != before.Rows {
		t.Fatalf("checkpoint after the drain holds %d segments / %d rows, before it %d / %d",
			after.Segments, after.Rows, before.Segments, before.Rows)
	}
}

// TestClientCircuitBreaker pins the breaker lifecycle: consecutive connect
// failures open the circuit (fail fast, no dial); the cooloff admits a single
// half-open probe, and a failed probe re-opens the circuit for the next caller.
func TestClientCircuitBreaker(t *testing.T) {
	srv, _ := newShardHTTP(t, 0, 7)
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	exp := service.NewExpander(w, service.Config{Seed: 7, K: 5})
	uq, err := exp.Expand("breaker", []string{"metabolism", "protein"}, 5)
	if err != nil {
		t.Fatal(err)
	}

	url := srv.URL
	srv.Close() // connections now refused

	c := fleet.NewClient(url, fleet.ClientConfig{
		MaxRetries:       1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooloff:   50 * time.Millisecond,
	})
	// First search burns through its attempts and trips the breaker.
	if _, err := c.Search(context.Background(), uq); err == nil {
		t.Fatal("search against closed endpoint succeeded")
	}
	// Now the circuit is open: fail fast without touching the network.
	if _, err := c.Health(context.Background()); !errors.Is(err, fleet.ErrCircuitOpen) {
		t.Fatalf("open circuit returned %v, want ErrCircuitOpen", err)
	}
	// After the cooloff a probe is admitted; it still fails (endpoint is
	// gone) and the circuit stays open for the next caller.
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Health(context.Background()); errors.Is(err, fleet.ErrCircuitOpen) {
		t.Fatal("cooloff did not admit a half-open probe")
	}
	if _, err := c.Health(context.Background()); !errors.Is(err, fleet.ErrCircuitOpen) {
		t.Fatalf("circuit closed after a failed probe")
	}
}

// TestFrontendRoutesAroundDeadShard kills one shard process outright: the
// front-end must mark it down on the failed search and answer from the
// survivor, and healthz must report the fleet degraded but OK.
func TestFrontendRoutesAroundDeadShard(t *testing.T) {
	srv0, _ := newShardHTTP(t, 0, 9)
	srv1, _ := newShardHTTP(t, 1, 9)
	fr := newTestFrontend(t, 9, []*httptest.Server{srv0, srv1}, fleet.FrontendConfig{})

	for _, kw := range fleetTopics {
		if _, err := fr.Search(context.Background(), "survivor", kw, 5); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()

	for _, kw := range fleetTopics {
		view, err := fr.Search(context.Background(), "survivor", kw, 5)
		if err != nil {
			t.Fatalf("search %v with shard 1 dead: %v", kw, err)
		}
		if view.Shard != 0 {
			t.Fatalf("search %v answered by shard %d, want 0", kw, view.Shard)
		}
	}

	hz := fr.Healthz(context.Background())
	if !hz.OK {
		t.Fatal("fleet healthz not OK with one live shard")
	}
	if hz.Shards[1].Error == "" {
		t.Fatal("healthz hides the dead shard's probe failure")
	}
}

// TestFrontendStatsFoldsEngines pins the front-end's /stats over two HTTP
// shards: every search counts once, the engines' admission batches and work
// fold in exactly, and latency comes from the front desk's own histograms.
func TestFrontendStatsFoldsEngines(t *testing.T) {
	srv0, _ := newShardHTTP(t, 0, 21)
	srv1, _ := newShardHTTP(t, 1, 21)
	fr := newTestFrontend(t, 21, []*httptest.Server{srv0, srv1}, fleet.FrontendConfig{})
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := fr.Search(context.Background(), "stats", fleetTopics[i%len(fleetTopics)], 5); err != nil {
			t.Fatal(err)
		}
	}
	st := fr.Stats(context.Background())
	var batches int64
	var work metrics.Snapshot
	for _, srv := range []*httptest.Server{srv0, srv1} {
		c := fleet.NewClient(srv.URL, fleet.ClientConfig{})
		ss, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		batches += ss.Service.Batches
		work = work.Add(ss.Work)
	}
	sv := st.Service
	if sv.Requests != n || sv.Completed != n {
		t.Errorf("requests %d, completed %d; want %d each", sv.Requests, sv.Completed, n)
	}
	if sv.BatchOccupancy.Count != batches || sv.Batches != batches {
		t.Errorf("batch occupancy count %d, batches %d; the shards released %d", sv.BatchOccupancy.Count, sv.Batches, batches)
	}
	if sv.WallLatency.Count != n || sv.EngineLatency.Count != n {
		t.Errorf("latency counts wall %d, engine %d; want %d", sv.WallLatency.Count, sv.EngineLatency.Count, n)
	}
	if sv.ExecBatch.Count == 0 || sv.ExecBatch.Count != sv.ExecBatchFlushes {
		t.Errorf("executor batches: %d observed, %d flushes", sv.ExecBatch.Count, sv.ExecBatchFlushes)
	}
	if st.Work != work {
		t.Errorf("work %+v, the shards' sum %+v", st.Work, work)
	}
	if len(st.Shards) != 2 || st.Shards[1].Shard != 1 {
		t.Errorf("per-engine detail = %+v", st.Shards)
	}
}

// TestLocalHealthReportsEngineInFlight: a search held in one engine's open
// admission window shows in flight on that engine's shard of /healthz and
// on no other.
func TestLocalHealthReportsEngineInFlight(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fleet.NewLocal(w, service.Config{K: 5, Shards: 2, BatchSize: 100, BatchWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *fleet.ResultView, 1)
	go func() {
		view, err := fr.Search(context.Background(), "held", fleetTopics[0], 5)
		if err != nil {
			t.Error(err)
		}
		done <- view
	}()
	var hz fleet.HealthzView
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz = fr.Healthz(context.Background())
		if hz.Shards[0].InFlight+hz.Shards[1].InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the search never reached an engine")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Close flushes the open window, which answers the held search.
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	view := <-done
	if view == nil {
		t.FailNow()
	}
	if got, other := hz.Shards[view.Shard].InFlight, hz.Shards[1-view.Shard].InFlight; got != 1 || other != 0 {
		t.Fatalf("healthz in flight: %d on the search's shard %d, %d on the other; want 1 and 0", got, view.Shard, other)
	}
}

// TestNewLocalRejectsBadConfig: a configuration service.New would panic on
// comes back as NewLocal's error, before any engine is built.
func TestNewLocalRejectsBadConfig(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []service.Config{
		{EvictPolicy: "bogus"},
		{Router: "bogus"},
		{SpillDir: filepath.Join(file, "spill")},
		{CheckpointDir: filepath.Join(file, "recover")},
	} {
		fr, err := fleet.NewLocal(w, cfg)
		if err == nil {
			fr.Close() //nolint:errcheck
			t.Errorf("NewLocal(%+v) returned no error", cfg)
		}
	}
}
