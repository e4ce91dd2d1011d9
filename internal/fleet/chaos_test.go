package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/chaos"
	"repro/internal/service"
	"repro/internal/workload"
)

// chaosSeq is the search sequence every degradation test replays: the same
// calls in the same order, so per-index comparison against a fault-free
// control run is exact (per-user scoring coefficients evolve per call, and
// expansion happens before any fault can strike).
var chaosSeq = append(append([][]string{}, fleetTopics...), fleetTopics...)

// answersDigest folds a result's answers — rank, score, candidate network,
// base tuple identities — with the UQ prefix stripped from the network id, so
// two runs that assigned different UQ numbers to the same logical query still
// compare equal. This is the "never wrong answers" half of the degradation
// contract: a degraded run may fail a query, but a query it answers must
// answer byte-identically to the unloaded run.
func answersDigest(v *fleet.ResultView) string {
	h := sha256.New()
	for _, a := range v.Answers {
		q := a.Query
		if i := strings.Index(q, "."); i >= 0 {
			q = q[i+1:]
		}
		fmt.Fprintf(h, "%d|%.9g|%s|", a.Rank, a.Score, q)
		for _, id := range a.IDs {
			h.Write([]byte(id))
			h.Write([]byte{'&'})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// miniFleet is a 2-shard fleet with explicit teardown (no t.Cleanup), so
// goroutine-leak checks can run after close().
type miniFleet struct {
	servers []*httptest.Server
	shards  []*fleet.ShardServer
	fr      *fleet.Frontend
}

func buildFleet(t *testing.T, seed uint64, transport http.RoundTripper, fcfg fleet.FrontendConfig) *miniFleet {
	t.Helper()
	m := &miniFleet{}
	for slot := 0; slot < 2; slot++ {
		w, err := workload.Bio()
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(w, service.Config{
			Seed: seed, K: 10, Shards: 1, ShardIDOffset: slot, BatchWindow: 0,
		})
		ss := fleet.NewShardServer(svc)
		m.shards = append(m.shards, ss)
		m.servers = append(m.servers, httptest.NewServer(ss.Handler()))
	}
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	var backends []fleet.Backend
	for _, srv := range m.servers {
		backends = append(backends, fleet.NewClient(srv.URL, fleet.ClientConfig{
			MaxRetries:   2,
			RetryBackoff: 2 * time.Millisecond,
			Transport:    transport,
			Metrics:      fcfg.Metrics,
		}))
	}
	if fcfg.Service.Seed == 0 {
		fcfg.Service = service.Config{Seed: seed, K: 10, Router: service.RouterAffinity}
	}
	fr, err := fleet.NewFrontend(w, fcfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	m.fr = fr
	return m
}

func (m *miniFleet) close() {
	if m.fr != nil {
		m.fr.Close() //nolint:errcheck
	}
	for _, srv := range m.servers {
		srv.Close()
	}
	for _, ss := range m.shards {
		ss.Close()
	}
}

// controlDigests replays chaosSeq against a fault-free fleet and returns the
// per-index answer digests every degraded run must match where it succeeds.
func controlDigests(t *testing.T, seed uint64) []string {
	t.Helper()
	m := buildFleet(t, seed, nil, fleet.FrontendConfig{})
	defer m.close()
	out := make([]string, len(chaosSeq))
	for i, kw := range chaosSeq {
		view, err := m.fr.Search(context.Background(), "chaos", kw, 10)
		if err != nil {
			t.Fatalf("control search %d: %v", i, err)
		}
		out[i] = answersDigest(view)
	}
	return out
}

// waitNoLeak polls until the goroutine count settles near base.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosLatencyParity: injected latency (with jitter) slows everything
// down but fails nothing — results must be byte-identical to the fault-free
// run, query by query. This is the below-saturation half of the degradation
// contract over the fault dimension.
func TestChaosLatencyParity(t *testing.T) {
	const seed = 23
	base := runtime.NumGoroutine()
	want := controlDigests(t, seed)

	tr := chaos.New(nil, 1, chaos.Config{Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond})
	m := buildFleet(t, seed, tr, fleet.FrontendConfig{})
	for i, kw := range chaosSeq {
		view, err := m.fr.Search(context.Background(), "chaos", kw, 10)
		if err != nil {
			t.Fatalf("search %d under latency: %v", i, err)
		}
		if got := answersDigest(view); got != want[i] {
			t.Errorf("query %d: answers diverged under injected latency", i)
		}
	}
	if st := tr.Stats(); st.Requests == 0 {
		t.Error("chaos transport saw no requests")
	}
	m.close()
	waitNoLeak(t, base)
}

// TestChaosFlakyConnections: refused connections (retryable — they provably
// never reached the shard) and dropped responses (not retryable — the query
// may have executed) rain on the fleet. Queries may fail, but every query
// that succeeds must return exactly the control run's answers, and the
// front-end must survive the whole sequence.
func TestChaosFlakyConnections(t *testing.T) {
	const seed = 29
	base := runtime.NumGoroutine()
	want := controlDigests(t, seed)

	tr := chaos.New(nil, 7, chaos.Config{RefuseProb: 0.25, DropProb: 0.2})
	m := buildFleet(t, seed, tr, fleet.FrontendConfig{
		// Probes ride the same chaotic transport; they re-mark a shard
		// healthy once a probe gets through, so refusals degrade service
		// instead of permanently shrinking the fleet.
		ProbeInterval: 10 * time.Millisecond,
	})
	succeeded := 0
	for i, kw := range chaosSeq {
		view, err := m.fr.Search(context.Background(), "chaos", kw, 10)
		if err != nil {
			// Degraded, never wrong: any error class the tier defines is
			// acceptable; a wrong answer is not.
			var rpcErr *fleet.RPCError
			if !errors.As(err, &rpcErr) &&
				!errors.Is(err, fleet.ErrNoHealthyShard) &&
				!errors.Is(err, fleet.ErrCircuitOpen) &&
				!connectLike(err) {
				t.Errorf("query %d: unexpected error class: %v", i, err)
			}
			continue
		}
		succeeded++
		if got := answersDigest(view); got != want[i] {
			t.Errorf("query %d: answers diverged under flaky connections", i)
		}
	}
	if succeeded == 0 {
		t.Error("no query survived a 25%/20% fault mix on a 2-shard fleet")
	}
	t.Logf("flaky run: %d/%d succeeded, chaos stats %+v", succeeded, len(chaosSeq), tr.Stats())
	m.close()
	waitNoLeak(t, base)
}

// connectLike reports a transport-level error (dial/read failures surface
// wrapped in *url.Error from net/http).
func connectLike(err error) bool {
	var op *net.OpError
	return errors.As(err, &op)
}

// realShard is a shard engine behind a real TCP listener, so a test can
// crash it (close the server) and restart a fresh engine on the same address
// mid-sequence.
type realShard struct {
	addr string
	srv  *http.Server
	ss   *fleet.ShardServer
	done chan struct{}
}

func startShardAt(t *testing.T, addr string, slot int, seed uint64) *realShard {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(w, service.Config{
		Seed: seed, K: 10, Shards: 1, ShardIDOffset: slot, BatchWindow: 0,
	})
	ss := fleet.NewShardServer(svc)
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rs := &realShard{addr: ln.Addr().String(), srv: &http.Server{Handler: ss.Handler()}, ss: ss, done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		rs.srv.Serve(ln) //nolint:errcheck
	}()
	return rs
}

// crash closes the HTTP server abruptly (in-flight connections cut), leaving
// the engine behind; the port is free for a restarted process.
func (rs *realShard) crash() {
	rs.srv.Close() //nolint:errcheck
	<-rs.done
	rs.ss.Close()
}

// TestShardCrashRestartMidWave: shard 1 is killed between waves and later
// restarted (fresh engine, same slot and seed, same address). Every wave must
// complete — searches placed on the dead shard fail over — and every answer
// must match the fault-free control run. The front-end survives any
// single-shard fault.
func TestShardCrashRestartMidWave(t *testing.T) {
	const seed = 31
	base := runtime.NumGoroutine()
	want := controlDigests(t, seed)
	if len(chaosSeq)%3 != 0 {
		t.Fatalf("chaosSeq length %d not divisible into 3 waves", len(chaosSeq))
	}
	wave := len(chaosSeq) / 3

	s0 := startShardAt(t, "127.0.0.1:0", 0, seed)
	s1 := startShardAt(t, "127.0.0.1:0", 1, seed)
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	newBackends := func() []fleet.Backend {
		return []fleet.Backend{
			fleet.NewClient("http://"+s0.addr, fleet.ClientConfig{MaxRetries: 1, RetryBackoff: 2 * time.Millisecond}),
			fleet.NewClient("http://"+s1.addr, fleet.ClientConfig{MaxRetries: 1, RetryBackoff: 2 * time.Millisecond}),
		}
	}
	fr, err := fleet.NewFrontend(w, fleet.FrontendConfig{
		Service: service.Config{Seed: seed, K: 10, Router: service.RouterAffinity},
	}, newBackends())
	if err != nil {
		t.Fatal(err)
	}

	// strict waves must answer every query; a degraded wave may fail some —
	// a query in flight when the crash is discovered can die on a cut
	// connection, and that error is correctly NOT retried (the request may
	// have been delivered) — but every answer it does return must be exact,
	// and failover must keep a majority of the wave alive.
	runWave := func(name string, from int, strict bool) {
		t.Helper()
		failed := 0
		for i := from; i < from+wave; i++ {
			view, err := fr.Search(context.Background(), "chaos", chaosSeq[i], 10)
			if err != nil {
				if strict {
					t.Fatalf("%s: query %d failed: %v", name, i, err)
				}
				failed++
				t.Logf("%s: query %d degraded to error: %v", name, i, err)
				continue
			}
			if got := answersDigest(view); got != want[i] {
				t.Errorf("%s: query %d answers diverged", name, i)
			}
		}
		if failed > wave/2 {
			t.Errorf("%s: %d/%d queries failed — failover did not keep the wave alive", name, failed, wave)
		}
	}

	runWave("wave 1 (both shards up)", 0, true)

	s1.crash()
	runWave("wave 2 (shard 1 down)", wave, false)

	// Restart slot 1: fresh engine, same seed and address — what a process
	// supervisor would do. A Healthz sweep re-marks it routable.
	s1 = startShardAt(t, s1.addr, 1, seed)
	if hz := fr.Healthz(context.Background()); !hz.OK {
		t.Fatalf("fleet unhealthy after restart: %+v", hz)
	}
	runWave("wave 3 (shard 1 restarted)", 2*wave, true)

	fr.Close() //nolint:errcheck
	s0.crash()
	s1.crash()
	waitNoLeak(t, base)
}
