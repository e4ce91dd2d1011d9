package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

// FrontendConfig tunes a front-end.
type FrontendConfig struct {
	// Service carries the expansion parameters (Seed, K), the Router
	// mode and the front-desk rate limits (Admission.UserRate, TotalRate);
	// engine-side fields are ignored — the engines live behind the backends.
	Service service.Config
	// ProbeInterval is the health prober's period; 0 disables background
	// probing (backends are then marked down only by failed searches).
	ProbeInterval time.Duration
	// Metrics receives fleet counters; nil allocates a private set.
	Metrics *metrics.Fleet
}

// ErrNoHealthyShard is returned by Search when every backend has been marked
// down or already failed this request.
var ErrNoHealthyShard = errors.New("fleet: no healthy shard")

// Frontend is the front desk of every serving mode: it owns candidate
// expansion (per-user scoring coefficients, UQ ids), rate limiting, shard
// placement, health and stats aggregation, but no engine state —
// everything it holds can be rebuilt by restarting it, at the cost of
// re-expanding and re-routing from scratch. Its backends are engines in this
// process (NewLocal) or shard processes over HTTP (NewClient).
type Frontend struct {
	exp      *service.Expander
	placer   *service.Placer
	svc      *metrics.Service
	fm       *metrics.Fleet
	adm      *admission.Controller // nil unless rate limits are configured
	backends []Backend

	mu   sync.Mutex
	down []bool // marked by failed probes/searches, cleared by probes

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewFrontend builds a front-end over the shard backends. The workload is
// needed only for expansion (schema, catalog, generator config) — the
// front-end never touches its data.
func NewFrontend(w *workload.Workload, cfg FrontendConfig, backends []Backend) (*Frontend, error) {
	if len(backends) == 0 {
		return nil, errors.New("fleet: front-end needs at least one backend")
	}
	svcCfg := cfg.Service
	svc := &metrics.Service{}
	placer, err := service.NewPlacer(svcCfg.Router, len(backends), svc)
	if err != nil {
		return nil, err
	}
	fm := cfg.Metrics
	if fm == nil {
		fm = &metrics.Fleet{}
	}
	f := &Frontend{
		exp:      service.NewExpander(w, svcCfg),
		placer:   placer,
		svc:      svc,
		fm:       fm,
		adm:      admission.NewController(svcCfg.Admission),
		backends: backends,
		down:     make([]bool, len(backends)),
		stop:     make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop(cfg.ProbeInterval)
	}
	return f, nil
}

// Metrics returns the front-end's fleet counters.
func (f *Frontend) Metrics() *metrics.Fleet { return f.fm }

// healthy reports whether backend i is currently routable.
func (f *Frontend) healthy(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.down[i]
}

func (f *Frontend) setDown(i int, down bool) {
	f.mu.Lock()
	changed := f.down[i] != down
	f.down[i] = down
	f.mu.Unlock()
	if changed && down {
		f.fm.HealthTrips.Inc()
	}
}

// Search expands the keyword query for the user and ships it to the placed
// shard. If the shard is unreachable (connect failure, open circuit, drain
// rejection that outlived the client's retries), the backend is marked down
// and the search fails over to the next healthy placement. An error after
// the query may have been admitted is surfaced instead — resubmitting it
// could execute the query twice — unless confirmAborted proves the shard
// crashed with it, which re-dispatches it. An overload shed — the front-desk rate
// limiter here, or a shard answering with a shed reason — is surfaced
// without marking anything down: saturation is backpressure, not failure.
func (f *Frontend) Search(ctx context.Context, user string, keywords []string, k int) (*ResultView, error) {
	start := time.Now()
	if shed := f.adm.Admit(user, start); shed != nil {
		f.svc.Shed.Inc()
		f.svc.ShedUserRate.Inc()
		return nil, shed
	}
	uq, err := f.exp.Expand(user, keywords, k)
	if err != nil {
		return nil, err
	}
	f.svc.Requests.Inc()
	tried := make(map[int]bool)
	for {
		sh, redirected := f.placer.Route(keywords, func(i int) bool {
			return !tried[i] && f.healthy(i)
		})
		if tried[sh] {
			// The router had no admissible shard left and fell back to an
			// already-failed one: every backend is down.
			return nil, fmt.Errorf("%w for %v", ErrNoHealthyShard, keywords)
		}
		if redirected {
			f.fm.RouteUnhealthy.Inc()
		}
		view, err := f.backends[sh].Search(ctx, uq)
		if err == nil {
			view.Shard = sh
			f.svc.WallLatency.Observe(time.Since(start))
			f.svc.EngineLatency.Observe(time.Duration(view.EngineLatencyNS))
			return view, nil
		}
		var rpcErr *RPCError
		if errors.As(err, &rpcErr) && rpcErr.Shed() && rpcErr.Reason != admission.ReasonDrain {
			// The shard shed the search under overload (rate, queue, or
			// deadline). It is saturated, not down — failing over would
			// defeat the rate limit and mask the saturation signal, so the
			// shed is surfaced to the caller with its retryability intact.
			f.fm.ShardSheds.Inc()
			return nil, err
		}
		if !retryable(err) && !errors.Is(err, ErrCircuitOpen) {
			if transportFailure(err) && ctx.Err() == nil &&
				f.confirmAborted(ctx, sh, uq.ID) {
				// The shard crashed with the search in flight: the process is
				// provably gone, or its restart's admission journal lists the
				// query as a recovered abort. Either way the original response
				// can never be delivered, so resubmitting to another shard
				// cannot double-deliver — and the deterministic engine answers
				// the re-run byte-identically.
				f.fm.Redispatches.Inc()
				f.setDown(sh, true)
				tried[sh] = true
				continue
			}
			return nil, err
		}
		// The query provably never reached admission on sh; route around it.
		f.setDown(sh, true)
		tried[sh] = true
	}
}

// probeTimeout bounds one health probe, periodic or crash-confirming;
// redispatchProbeRetry paces the repeats of an inconclusive confirmation.
const (
	probeTimeout         = 2 * time.Second
	redispatchProbeRetry = 20 * time.Millisecond
)

// transportFailure reports whether err is a raw transport error with no HTTP
// response behind it — the connection died mid-request, so the shard may have
// admitted the query but can no longer answer it. Client-side timeouts and
// context cancellations are excluded: there the shard is (as far as we know)
// alive and still executing.
func transportFailure(err error) bool {
	var rpcErr *RPCError
	return !errors.As(err, &rpcErr) && !errors.Is(err, ErrCircuitOpen) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// confirmAborted verifies that a search which died on the wire was a crash
// casualty: the shard process is unreachable at the connection level (its
// in-flight responses died with it), or it restarted and its admission
// journal lists the query as a recovered abort. Anything weaker — the shard
// answers health and does not report the query aborted — returns false and
// the original error is surfaced, preserving the strict no-double-execution
// rule for mere packet loss.
//
// One health probe can be inconclusive: a SIGKILLed process keeps its listen
// queue open for a moment while the kernel tears it down, so a probe sent in
// that window connects and is then reset (a read error, not a dial error),
// and an open circuit breaker answers without touching the network at all.
// Neither proves the shard alive or dead, so the probe repeats until it gets
// a verdict — the dial is refused, or the shard answers — within
// probeTimeout.
func (f *Frontend) confirmAborted(ctx context.Context, sh int, uqID string) bool {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	for {
		_, err := f.backends[sh].Health(pctx)
		if err == nil {
			break
		}
		if connectFailure(err) {
			return true
		}
		if !transportFailure(err) && !errors.Is(err, ErrCircuitOpen) {
			return false // the shard answered (or the probe timed out): no verdict of death
		}
		select {
		case <-time.After(redispatchProbeRetry):
		case <-pctx.Done():
			return false
		}
	}
	rv, err := f.backends[sh].Recovered(pctx)
	if err != nil {
		return false
	}
	for _, q := range rv.Queries {
		if q.ID == uqID {
			return true
		}
	}
	return false
}

// HealthzView aggregates per-shard health for the front-end's /healthz.
type HealthzView struct {
	OK     bool              `json:"ok"`
	Shards []ShardHealthView `json:"shards"`
}

// ShardHealthView is one backend's health as last observed.
type ShardHealthView struct {
	Shard           int    `json:"shard"`
	Endpoint        string `json:"endpoint,omitempty"`
	Healthy         bool   `json:"healthy"`
	Draining        bool   `json:"draining"`
	InFlight        int    `json:"in_flight"`
	State           string `json:"state,omitempty"`
	CheckpointGen   int    `json:"checkpoint_gen,omitempty"`
	RecoveredAborts int    `json:"recovered_aborts,omitempty"`
	Error           string `json:"error,omitempty"`
}

// Healthz probes every backend and aggregates: OK iff at least one shard is
// healthy and routable.
func (f *Frontend) Healthz(ctx context.Context) HealthzView {
	view := HealthzView{}
	for i, b := range f.backends {
		sv := ShardHealthView{Shard: i}
		if c, ok := b.(*Client); ok {
			sv.Endpoint = c.Endpoint()
		}
		hv, err := b.Health(ctx)
		if err != nil {
			sv.Error = err.Error()
			f.setDown(i, true)
		} else {
			sv.Healthy = hv.Healthy
			sv.Draining = hv.Draining
			sv.InFlight = hv.InFlight
			sv.State = hv.State
			sv.CheckpointGen = hv.CheckpointGen
			sv.RecoveredAborts = hv.RecoveredAborts
			f.setDown(i, !hv.Healthy)
		}
		if sv.Healthy {
			view.OK = true
		}
		view.Shards = append(view.Shards, sv)
	}
	return view
}

// Stats aggregates the fleet, counting every search once. The front desk
// contributes what only it sees: requests, its rate-limit sheds, placement,
// the expansion cache, its shard RPC traffic, and the wall and engine latency
// of every search it answered, each from one histogram. Every reachable
// backend contributes its engine: the lifecycle past placement (queued, in
// flight, completed, canceled, rejected, queue-full and deadline sheds),
// admission and executor batches, work, per-engine detail and the recovery
// tier.
func (f *Frontend) Stats(ctx context.Context) service.Stats {
	fm := f.fm.Snapshot()
	st := service.Stats{Service: f.svc.Snapshot(), Router: f.placer.Stats(), ExpandCache: f.exp.CacheStats(), Fleet: &fm}
	for i, b := range f.backends {
		bs, err := b.Stats(ctx)
		if err != nil {
			log.Printf("fleet: stats from shard %d: %v", i, err)
			continue
		}
		e, sv := bs.Service, &st.Service
		sv.InFlight += e.InFlight
		sv.Queued += e.Queued
		sv.Completed += e.Completed
		sv.Canceled += e.Canceled
		sv.Rejected += e.Rejected
		sv.Batches += e.Batches
		sv.Shed += e.Shed
		sv.ShedQueueFull += e.ShedQueueFull
		sv.DeadlineCanceled += e.DeadlineCanceled
		sv.BatchOccupancy = sv.BatchOccupancy.Add(e.BatchOccupancy)
		st.Work = st.Work.Add(bs.Work)
		st.Recovery = st.Recovery.Add(bs.Recovery)
		for _, ss := range bs.Shards {
			ss.Shard = i
			st.Shards = append(st.Shards, ss)
		}
	}
	st.Shared = st.SharedSplit()
	return st
}

// probeLoop marks backends up/down from periodic health probes.
func (f *Frontend) probeLoop(interval time.Duration) {
	defer f.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
		}
		for i, b := range f.backends {
			f.fm.HealthProbes.Inc()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			hv, err := b.Health(ctx)
			cancel()
			f.setDown(i, err != nil || !hv.Healthy)
		}
	}
}

// Close stops the prober and releases the backends: clients drop their
// connections, local backends shut their engines down. It does not stop
// shard processes — the front-end is stateless and restartable under them.
func (f *Frontend) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	var errs []error
	for _, b := range f.backends {
		if err := b.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
