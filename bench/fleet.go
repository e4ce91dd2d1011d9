package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	fleetShards = 2
	// senders is how many generator goroutines send at once, each over its
	// own keep-alive connection.
	senders = 2
	// hopPasses is how many passes the traced run poses one search at a time
	// to cost the HTTP/JSON hop.
	hopPasses = 3
	// A ladder rung passes when no search fails, p95 is within rungLimit and
	// the last completion is within rungLimit of the last due time.
	rungLimit = 250 * time.Millisecond
)

var ladder = []float64{40, 80, 160, 320}

// shardProc is one shard "process": a service behind an HTTP server on
// loopback.
type shardProc struct {
	ss     *fleet.ShardServer
	server *http.Server
	served chan struct{} // closed when Serve returns
}

// fleetEnv is the production topology in one process: a stateless front-end
// over fleetShards HTTP shard servers, each with its own workload instance.
type fleetEnv struct {
	front  *fleet.Frontend
	shards []*shardProc
	wf     *workload.Workload
	pool   [][]string
	fm     *metrics.Fleet
	// hop is set in the traced run: the benchmark-side wrappers around the
	// client and the shard handler.
	hop *hopTimer
}

// hopTimer accumulates the time spent in Client.Search and in the shard's
// search handler; their difference is what the HTTP/JSON hop adds.
type hopTimer struct {
	client, handler atomic.Int64 // ns
	calls           atomic.Int64
}

type timedBackend struct {
	fleet.Backend
	hop *hopTimer
}

func (b *timedBackend) Search(ctx context.Context, uq *cq.UQ) (*fleet.ResultView, error) {
	t := time.Now()
	v, err := b.Backend.Search(ctx, uq)
	b.hop.client.Add(int64(time.Since(t)))
	b.hop.calls.Add(1)
	return v, err
}

type timedHandler struct {
	http.Handler
	hop *hopTimer
}

func (h *timedHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/rpc/search" {
		h.Handler.ServeHTTP(rw, req)
		return
	}
	t := time.Now()
	h.Handler.ServeHTTP(rw, req)
	h.hop.handler.Add(int64(time.Since(t)))
}

// setupFleet builds the fleet and runs the warm-up passes through the
// front-end, one search at a time. With oracle set, the last warm-up pass is
// also checked against ground truth: while searches go one at a time a second
// expander fed the same sequence reproduces the front-end's expansions, which
// the concurrent phases later break. Its wall time, less the benchmark's own
// checks, is one setup_s sample.
func setupFleet(sp spec, p params, out *outcome, traced, oracle bool) (*fleetEnv, setupInfo, error) {
	start := time.Now()
	var checking time.Duration
	e := &fleetEnv{fm: &metrics.Fleet{}}
	if traced {
		e.hop = &hopTimer{}
	}
	cfg := sp.serviceConfig(p.Seed, "")
	cfg.Router = service.RouterAffinity
	var backends []fleet.Backend
	for i := 0; i < fleetShards; i++ {
		w, err := workload.GUS(1, sp.Scale)
		if err != nil {
			e.close()
			return nil, setupInfo{}, err
		}
		scfg := cfg
		scfg.Shards, scfg.ShardIDOffset = 1, i
		ss := fleet.NewShardServer(service.New(w, scfg))
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ss.Close()
			e.close()
			return nil, setupInfo{}, err
		}
		handler := ss.Handler()
		if traced {
			handler = &timedHandler{Handler: handler, hop: e.hop}
		}
		proc := &shardProc{ss: ss, server: &http.Server{Handler: handler}, served: make(chan struct{})}
		go func() {
			defer close(proc.served)
			proc.server.Serve(lis) //nolint:errcheck // always ErrServerClosed after Shutdown
		}()
		e.shards = append(e.shards, proc)
		var b fleet.Backend = fleet.NewClient("http://"+lis.Addr().String(), fleet.ClientConfig{Metrics: e.fm})
		if traced {
			b = &timedBackend{Backend: b, hop: e.hop}
		}
		backends = append(backends, b)
	}
	var err error
	if e.wf, err = workload.GUS(1, sp.Scale); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	if e.front, err = fleet.NewFrontend(e.wf, fleet.FrontendConfig{Service: cfg, Metrics: e.fm}, backends); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	e.pool = keywordPool(e.wf, p.Pool)

	// The shadow expander is fed the front-end's own sequence, so it yields
	// the front-end's expansions for the checks.
	shadow := service.NewExpander(e.wf, cfg)
	info := setupInfo{}
	for pass := 0; pass < sp.Warmup; pass++ {
		for _, s := range passOf(e.pool, p.Seed, pass) {
			view, err := e.front.Search(context.Background(), s.User, s.Keywords, topK)
			t := time.Now()
			out.Attempted++
			info.Searches++
			uq, xerr := shadow.Expand(s.User, s.Keywords, topK)
			switch {
			case err != nil:
				out.fail(err)
			case xerr != nil:
				out.fail(xerr)
			default:
				if err := checkView(view, uq); err != nil {
					out.fail(err)
				} else if oracle && pass == sp.Warmup-1 {
					if err := checkOracle(e.wf, uq, viewScores(view)); err != nil {
						out.fail(err)
					}
				}
			}
			checking += time.Since(t)
		}
	}
	t := time.Now()
	info.SourceTuples = e.front.Stats(context.Background()).Work.TuplesConsumed()
	checking += time.Since(t)
	info.Seconds = (time.Since(start) - checking).Seconds()
	return e, info, nil
}

// close stops the servers and waits until their goroutines have ended.
func (e *fleetEnv) close() error {
	var errs []error
	if e.front != nil {
		errs = append(errs, e.front.Close())
	}
	for _, proc := range e.shards {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, proc.server.Shutdown(ctx))
		cancel()
		<-proc.served
		proc.ss.Close()
	}
	return errors.Join(errs...)
}

// arrival is one search of an open-loop schedule, due at an offset from the
// schedule's start.
type arrival struct {
	due time.Duration
	s   search
}

// poisson draws n arrivals at the given mean rate (exponential gaps) from the
// seed, posing the schedule's passes from firstPass on in order.
func poisson(pool [][]string, seed uint64, rate float64, n, firstPass int) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)*7_000_003 + int64(rate)))
	out := make([]arrival, 0, n)
	var at float64
	for pass := firstPass; len(out) < n; pass++ {
		for _, s := range passOf(pool, seed, pass) {
			if len(out) == n {
				break
			}
			at += rng.ExpFloat64() / rate
			out = append(out, arrival{due: time.Duration(at * float64(time.Second)), s: s})
		}
	}
	return out
}

// loopResult is what an open-loop run observed, per arrival.
type loopResult struct {
	latency  []float64     // ms from due time to completion, in arrival order
	lastDone time.Duration // offset of the last completion from the run's start
	lateMax  time.Duration // the generator's worst send delay
	failed   int
}

// openLoop sends the schedule from `senders` goroutines: each takes the next
// arrival, sleeps until it is due (or sends at once when already late) and
// waits for the reply, so latency counted from the due time includes the
// wait a stall imposes on later arrivals.
func (e *fleetEnv) openLoop(arrivals []arrival, out *outcome) loopResult {
	type sample struct {
		sendDelay time.Duration
		done      time.Duration
		err       error
	}
	samples := make([]sample, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				view, err := e.front.Search(context.Background(), a.s.User, a.s.Keywords, topK)
				done := time.Since(start)
				if err == nil {
					err = checkView(view, nil)
				}
				samples[i] = sample{sendDelay: sent - a.due, done: done, err: err}
			}
		}()
	}
	wg.Wait()
	var r loopResult
	for i, s := range samples {
		out.Attempted++
		if s.err != nil {
			out.fail(s.err)
			r.failed++
		}
		r.lastDone = max(r.lastDone, s.done)
		r.latency = append(r.latency, float64(s.done-arrivals[i].due)/float64(time.Millisecond))
		r.lateMax = max(r.lateMax, s.sendDelay)
	}
	return r
}

// The fleet as an end-to-end target: one client posing whole passes through
// the front-end, as on the in-process workloads, so the numbers differ from
// repeat_warm's by the HTTP/JSON hop and the routing over two shards. Nothing
// concurrent is gated: with two senders keeping both of this machine's cores
// busy, completions per second read 81 to 120 over ten runs, and open-loop p90
// below capacity 37 to 58 ms over six runs of one seed. The rate ladder is in
// the traced run, ungated.

func (e *fleetEnv) keywordSets() [][]string { return e.pool }

func (e *fleetEnv) pose(s search) (time.Duration, error) {
	t := time.Now()
	view, err := e.front.Search(context.Background(), s.User, s.Keywords, topK)
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	return d, checkView(view, nil)
}

// verify has nothing left to do: the oracle ran in the last warm-up pass,
// where the front-end's expansions could still be reproduced.
func (e *fleetEnv) verify(params, int, *outcome) {}

// runFleetTraced is the per-layer run of the fleet workload: a sequential
// pass with the benchmark's wrappers around the client and the shard handler
// (the hop's cost), the rate ladder, and the wire codecs timed on their own.
func runFleetTraced(sp spec, p params) (*outcome, error) {
	out := &outcome{Metrics: readings{}}
	m := out.Metrics
	e, _, err := setupFleet(sp, p, out, true, true)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// The hop: hopPasses passes, one search at a time. It is a small
	// difference of two large sums, so it is read per pass and the median
	// taken.
	var hops []float64
	for pass := sp.Warmup; pass < sp.Warmup+hopPasses; pass++ {
		client0, handler0, calls0 := e.hop.client.Load(), e.hop.handler.Load(), e.hop.calls.Load()
		for _, s := range passOf(e.pool, p.Seed, pass) {
			view, err := e.front.Search(context.Background(), s.User, s.Keywords, topK)
			out.Attempted++
			if err != nil {
				out.fail(err)
			} else if err := checkView(view, nil); err != nil {
				out.fail(err)
			}
		}
		added := float64(e.hop.client.Load()-client0) - float64(e.hop.handler.Load()-handler0)
		hops = append(hops, ratio(added, float64(e.hop.calls.Load()-calls0))/1e3)
	}
	m.set(perLayer, "fleet.rpc_overhead_us", median(hops), hops...)

	// The ladder. Each rung offers its rate for a share of p.Seconds and
	// drains before the next starts.
	shares := []float64{0.2, 0.2, 0.1, 0.067}
	runtime.GC()
	before := markRuntime()
	sustained, sustaining := 0.0, true
	var lateMax time.Duration
	searches := 0
	for i, rate := range ladder {
		n := int(rate * shares[i] * p.Seconds)
		if n < 1 {
			n = 1
		}
		arrivals := poisson(e.pool, p.Seed, rate, n, sp.Warmup+hopPasses+i*1000)
		r := e.openLoop(arrivals, out)
		searches += len(r.latency)
		lat := append([]float64(nil), r.latency...)
		sort.Float64s(lat)
		p95 := percentile(lat, 95)
		drained := r.lastDone - arrivals[n-1].due
		passed := r.failed == 0 && p95 <= float64(rungLimit)/1e6 && drained <= rungLimit
		if sustaining && passed {
			sustained = rate
			lateMax = max(lateMax, r.lateMax)
		} else {
			sustaining = false
		}
		if rate == 40 {
			m.set(perLayer, "fleet.rung40_p50_ms", percentile(lat, 50))
		}
		m.set(perLayer, fmt.Sprintf("fleet.rung%g_p95_ms", rate), p95)
		if i == len(ladder)-1 {
			// Completions per second from the first due time to the last
			// completion, at an offered rate far over capacity.
			m.set(perLayer, "fleet.saturated_qps", ratio(float64(n), (r.lastDone-arrivals[0].due).Seconds()))
		}
		p.Log("  rung %g/s: %d arrivals, p50 %.2f p95 %.2f ms, drained %.0f ms after the last due time, passed=%v",
			rate, n, percentile(lat, 50), p95, float64(drained)/1e6, passed)
	}
	markRuntime().report(m, before, searches)
	m.set(perLayer, "fleet.sustained_qps", sustained)
	m.set(perLayer, "fleet.generator_late_max_ms", float64(lateMax)/1e6)
	fm := e.fm.Snapshot()
	m.set(perLayer, "fleet.retries", float64(fm.RPCRetries))
	m.set(perLayer, "fleet.failovers", float64(fm.RouteUnhealthy))

	return out, wireCodecs(sp, p, e.wf, e.pool, out)
}

// wireCodecs times the two legs of the wire format on their own: a third,
// in-process service over the front-end's workload answers one pass, and each
// query and result is encoded and decoded the way the client and the shard
// handler do.
func wireCodecs(sp spec, p params, w *workload.Workload, pool [][]string, out *outcome) error {
	cfg := sp.serviceConfig(p.Seed, "")
	svc := service.New(w, cfg)
	defer svc.Close()
	exp := service.NewExpander(w, cfg)
	var encode, decode, view time.Duration
	var reqBytes, respBytes, n int
	for _, s := range passOf(pool, p.Seed, 0) {
		uq, err := exp.Expand(s.User, s.Keywords, topK)
		if err != nil {
			return err
		}
		t := time.Now()
		req, err := json.Marshal(fleet.EncodeUQ(uq))
		encode += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		var wire fleet.WireUQ
		err = json.Unmarshal(req, &wire)
		var back *cq.UQ
		if err == nil {
			back, err = fleet.DecodeUQ(&wire)
		}
		decode += time.Since(t)
		if err != nil {
			return err
		}
		res, err := svc.SearchUQ(context.Background(), back)
		out.Attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		// The decoded query must answer as the original would.
		if err := checkAnswers(uq, res.Answers); err != nil {
			out.fail(err)
		}
		t = time.Now()
		resp, err := json.Marshal(fleet.ViewOf(res))
		view += time.Since(t)
		if err != nil {
			return err
		}
		reqBytes += len(req)
		respBytes += len(resp)
		n++
	}
	if n == 0 {
		return nil
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	m := out.Metrics
	m.set(perLayer, "fleet.encode_us", us(encode))
	m.set(perLayer, "fleet.decode_us", us(decode))
	m.set(perLayer, "fleet.view_us", us(view))
	m.set(perLayer, "fleet.request_bytes", float64(reqBytes)/float64(n))
	m.set(perLayer, "fleet.response_bytes", float64(respBytes)/float64(n))
	return nil
}
