package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/fleet"
	"repro/internal/fleet/chaos"
	"repro/internal/recovery"
	"repro/internal/service"
	"repro/internal/state"
	"repro/internal/workload"
)

// crashMode selects how the "crashed" backend answers the front-end's
// crash-confirmation probes.
type crashMode int

const (
	// crashDead: the process is gone — health probes fail at the dial.
	crashDead crashMode = iota
	// crashDying: the process is being torn down — the first health probe
	// still connects to its closing listen queue and is reset mid-read; the
	// ones after it are refused at the dial.
	crashDying
	// crashJournaled: the process restarted and its admission journal lists
	// the query as a recovered abort.
	crashJournaled
	// crashAliveUnjournaled: the shard is alive and does not report the query
	// aborted — the wire failure was mere packet loss, and resubmitting could
	// execute the query twice.
	crashAliveUnjournaled
)

// crashState is shared across the fake backends of one test: whichever
// backend the router picks first "crashes" mid-response, so the scenario is
// exercised regardless of placement.
type crashState struct {
	mode crashMode

	mu      sync.Mutex
	crashed int // index of the backend that crashed; -1 until the first search
	probes  int // health probes the crashed backend has answered
}

type crashyBackend struct {
	st  *crashState
	idx int
}

func (b *crashyBackend) Search(ctx context.Context, uq *cq.UQ) (*fleet.ResultView, error) {
	b.st.mu.Lock()
	defer b.st.mu.Unlock()
	if b.st.crashed == -1 {
		b.st.crashed = b.idx
	}
	if b.st.crashed == b.idx {
		// The connection died after the request was delivered: a read-op
		// error, exactly what a SIGKILL mid-response surfaces.
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: fmt.Errorf("connection reset")}
	}
	return &fleet.ResultView{ID: uq.ID, Keywords: uq.Keywords}, nil
}

func (b *crashyBackend) Health(ctx context.Context) (fleet.HealthView, error) {
	b.st.mu.Lock()
	crashed := b.st.crashed == b.idx
	if crashed {
		b.st.probes++
	}
	probes := b.st.probes
	b.st.mu.Unlock()
	if !crashed {
		return fleet.HealthView{Healthy: true, State: "ready"}, nil
	}
	switch b.st.mode {
	case crashDying:
		if probes == 1 {
			return fleet.HealthView{}, &net.OpError{Op: "read", Net: "tcp", Err: fmt.Errorf("connection reset by peer")}
		}
		fallthrough
	case crashDead:
		return fleet.HealthView{}, &net.OpError{Op: "dial", Net: "tcp", Err: fmt.Errorf("connection refused")}
	case crashJournaled:
		return fleet.HealthView{Healthy: false, State: "recovering"}, nil
	default:
		return fleet.HealthView{Healthy: true, State: "ready"}, nil
	}
}

func (b *crashyBackend) Recovered(ctx context.Context) (fleet.RecoveredView, error) {
	b.st.mu.Lock()
	crashed := b.st.crashed == b.idx
	b.st.mu.Unlock()
	if crashed && b.st.mode == crashJournaled {
		// The front-end's first expansion is UQ1 by construction.
		q := recovery.QueryRecord{ID: "UQ1", Keywords: []string{"metabolism", "protein"}, K: 10}
		return fleet.RecoveredView{Count: 1, Queries: []recovery.QueryRecord{q}}, nil
	}
	return fleet.RecoveredView{}, nil
}

func (b *crashyBackend) Stats(ctx context.Context) (*service.Stats, error) {
	return &service.Stats{}, nil
}
func (b *crashyBackend) Export(ctx context.Context, kw []string) (*state.TopicExport, error) {
	return &state.TopicExport{}, nil
}
func (b *crashyBackend) Import(ctx context.Context, exp *state.TopicExport) (fleet.ImportCounts, error) {
	return fleet.ImportCounts{}, nil
}
func (b *crashyBackend) Drain(ctx context.Context) (*state.TopicExport, error) {
	return &state.TopicExport{}, nil
}
func (b *crashyBackend) Close() error { return nil }

func newCrashFrontend(t *testing.T, mode crashMode, redispatch bool) (*fleet.Frontend, *crashState) {
	t.Helper()
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	st := &crashState{mode: mode, crashed: -1}
	backends := []fleet.Backend{
		&crashyBackend{st: st, idx: 0},
		&crashyBackend{st: st, idx: 1},
	}
	fr, err := fleet.NewFrontend(w, fleet.FrontendConfig{
		Service:    service.Config{Seed: 7, K: 10, Router: service.RouterAffinity},
		Redispatch: redispatch,
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fr.Close() }) //nolint:errcheck
	return fr, st
}

// TestRedispatchAfterConfirmedCrash pins the re-dispatch contract: a search
// whose connection died mid-response is resubmitted to another shard only
// after the front-end confirms the crash — the process is unreachable, or the
// restart's journal lists the query aborted — and is surfaced as an error
// when the shard turns out to be alive and unjournaled (packet loss must not
// cause double execution).
func TestRedispatchAfterConfirmedCrash(t *testing.T) {
	kw := []string{"metabolism", "protein"}

	for _, tc := range []struct {
		name string
		mode crashMode
		want bool // search answered via re-dispatch
	}{
		{"process-dead", crashDead, true},
		{"process-dying", crashDying, true},
		{"journaled-abort", crashJournaled, true},
		{"alive-unjournaled", crashAliveUnjournaled, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, _ := newCrashFrontend(t, tc.mode, true)
			view, err := fr.Search(context.Background(), "rec", kw, 10)
			got := fr.Metrics().Redispatches.Value()
			if tc.want {
				if err != nil {
					t.Fatalf("confirmed crash not re-dispatched: %v", err)
				}
				if view.ID != "UQ1" {
					t.Fatalf("re-dispatched answer for %s, want UQ1", view.ID)
				}
				if got != 1 {
					t.Fatalf("Redispatches = %d, want 1", got)
				}
			} else {
				if err == nil {
					t.Fatal("unconfirmed wire failure was resubmitted — double execution risk")
				}
				if got != 0 {
					t.Fatalf("Redispatches = %d, want 0", got)
				}
			}
		})
	}
}

// TestRedispatchDisabledSurfacesError pins the zero-value default: without
// Redispatch even a provably dead shard surfaces the wire error unchanged.
func TestRedispatchDisabledSurfacesError(t *testing.T) {
	fr, _ := newCrashFrontend(t, crashDead, false)
	if _, err := fr.Search(context.Background(), "rec", []string{"metabolism", "protein"}, 10); err == nil {
		t.Fatal("redispatch disabled but the failed search was answered")
	}
	if n := fr.Metrics().Redispatches.Value(); n != 0 {
		t.Fatalf("Redispatches = %d with redispatch disabled", n)
	}
}

// --- process-level kill/recover integration -------------------------------

func buildShardBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qsys-shard")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/qsys-shard").CombinedOutput()
	if err != nil {
		t.Fatalf("build qsys-shard: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startShardProc(t *testing.T, bin, addr string, slot int, dir string) *chaos.Proc {
	t.Helper()
	p, err := chaos.StartProc(bin, []string{
		"-addr", addr, "-shard-id", fmt.Sprint(slot), "-seed", "11",
		"-window", "0s", "-k", "10",
		"-recover-dir", dir, "-checkpoint-interval", "150ms",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func waitShardReady(t *testing.T, url string) {
	t.Helper()
	c := fleet.NewClient(url, fleet.ClientConfig{
		Timeout: 2 * time.Second, MaxRetries: 1, BreakerThreshold: 1 << 20,
	})
	defer c.Close() //nolint:errcheck
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		hv, err := c.Health(context.Background())
		if err == nil && hv.Healthy {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("shard %s never became ready", url)
}

func answerDigest(v *fleet.ResultView) string {
	h := sha256.New()
	fleet.DigestAnswers(h, v)
	return hex.EncodeToString(h.Sum(nil))
}

// TestKillRecoverDigestIdentical is the crash-recovery gate end to end: two
// qsys-shard processes behind a re-dispatching front-end, one SIGKILLed
// mid-wave and restarted over its -recover-dir. Every query answered during
// and after the fault must digest byte-identically to a no-fault control, and
// the restarted shard must prove it warm-started from a checkpoint.
func TestKillRecoverDigestIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level integration test")
	}
	bin := buildShardBin(t)

	// No-fault control: the equivalent two engines in this process
	// replaying the exact three-wave call sequence. Per-user scoring
	// coefficients evolve per call, so the comparison is per global call
	// index; answers are otherwise a pure function of the query and the
	// data — placement-independent — which is what lets a re-dispatched or
	// rerouted query still match.
	const waves = 3
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	single, err := fleet.NewLocal(w, service.Config{
		Seed: 11, K: 10, Shards: 2, Router: service.RouterAffinity,
		BatchWindow: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	var control []string
	for wave := 0; wave < waves; wave++ {
		for _, kw := range fleetTopics {
			view, err := single.Search(context.Background(), "rec", kw, 10)
			if err != nil {
				t.Fatal(err)
			}
			control = append(control, answerDigest(view))
		}
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}

	// The fleet under test: two shard processes checkpointing to recover
	// dirs, front-end with re-dispatch on.
	dirs := []string{t.TempDir(), t.TempDir()}
	addrs := []string{freeAddr(t), freeAddr(t)}
	urls := []string{"http://" + addrs[0], "http://" + addrs[1]}
	procs := []*chaos.Proc{
		startShardProc(t, bin, addrs[0], 0, dirs[0]),
		startShardProc(t, bin, addrs[1], 1, dirs[1]),
	}
	t.Cleanup(func() { procs[0].Kill(); procs[1].Kill() }) //nolint:errcheck
	waitShardReady(t, urls[0])
	waitShardReady(t, urls[1])

	var backends []fleet.Backend
	for _, u := range urls {
		backends = append(backends, fleet.NewClient(u, fleet.ClientConfig{
			MaxRetries: 2, RetryBackoff: 5 * time.Millisecond,
		}))
	}
	fr, err := fleet.NewFrontend(w, fleet.FrontendConfig{
		Service:       service.Config{Seed: 11, K: 10, Router: service.RouterAffinity},
		ProbeInterval: 100 * time.Millisecond,
		Redispatch:    true,
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fr.Close() }) //nolint:errcheck

	call := 0
	served := make([]int, 2)
	wave := func(name string, before func(i int)) {
		t.Helper()
		for i, kw := range fleetTopics {
			if before != nil {
				before(i)
			}
			view, err := fr.Search(context.Background(), "rec", kw, 10)
			if err != nil {
				t.Fatalf("%s call %d %v: %v", name, call, kw, err)
			}
			if got := answerDigest(view); got != control[call] {
				t.Fatalf("%s call %d %v: digest %s != control %s — wrong answer under fault",
					name, call, kw, got, control[call])
			}
			served[view.Shard]++
			call++
		}
	}

	// Wave 1 populates the shards' retained state; the checkpoint loop
	// (150ms) durably captures it before the kill. Kill the shard that
	// actually served queries — the affinity router may pin every topic to
	// one shard, and killing an empty shard would test nothing.
	wave("pre-fault", nil)
	time.Sleep(500 * time.Millisecond)
	victim := 0
	if served[1] > served[0] {
		victim = 1
	}

	// SIGKILL the victim while wave 2 is in flight: queries racing the kill
	// are either re-dispatched (crash confirmed) or routed around (connection
	// refused), and every answer that comes back must still match control.
	// The kill is released by the wave's own progress, not by a timer — a
	// whole wave of warm searches is shorter than any delay worth sleeping
	// for — so it always lands with searches still to come.
	killed := make(chan struct{})
	wave("mid-fault", func(i int) {
		if i == 1 {
			go func() {
				defer close(killed)
				procs[victim].Kill() //nolint:errcheck
			}()
		}
	})
	<-killed

	// Warm restart over the same recover dir: the shard must come back
	// serving from its checkpoint, not from scratch.
	procs[victim] = startShardProc(t, bin, addrs[victim], victim, dirs[victim])
	waitShardReady(t, urls[victim])

	probe := fleet.NewClient(urls[victim], fleet.ClientConfig{Timeout: 2 * time.Second})
	defer probe.Close() //nolint:errcheck
	hv, err := probe.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hv.CheckpointGen == 0 {
		t.Fatal("restarted shard reports no checkpoint generation — cold start")
	}
	st, err := probe.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovery.SegmentsRecovered == 0 {
		t.Fatalf("restarted shard installed no checkpoint segments: %+v", st.Recovery)
	}

	// Let the prober see the victim healthy again, then the recovered fleet
	// must answer byte-identically to control.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if hz := fr.Healthz(context.Background()); hz.OK && hz.Shards[victim].Healthy {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	wave("post-recovery", nil)
}
