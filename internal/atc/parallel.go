package atc

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/plangraph"
	"repro/internal/simclock"
	"repro/internal/source"
)

// The intra-shard parallel executor.
//
// A shard's shared plan graph usually holds several independent subgraphs at
// once — unrelated topics whose queries share nothing. The serial ATC drives
// all of them on one goroutine, so a shard uses one core no matter how many
// independent components it holds. EnableParallel schedules each component's
// round on a worker pool instead, with a barrier per global round.
//
// Determinism contract (the reason this executor can replace the serial one
// under the bench trajectory's digest gates):
//
//   - components share no runtime state (see components.go), so which rows
//     flow is decided entirely inside a component;
//   - within a component, merges advance in admission order — the serial
//     round's relative order restricted to the component;
//   - every remote-operation delay is drawn from a per-source-node model
//     seeded by the node's key, so the i'th read of a node costs the same
//     whatever the worker interleaving;
//   - each component's round runs on a fork of the environment with a
//     private virtual clock; at the barrier the global clock advances over
//     the component end times in fixed component order;
//   - cross-component aggregation outside the round — eviction, catalog
//     sync, endpoint draining — already runs on the executor goroutine
//     between rounds, in plan-graph order.
//
// Result digests and work counters are therefore byte-identical at any
// worker count > 1, and identical to the serial engine's (whose delay
// sequence differs, but delays never influence which rows flow — only the
// virtual timeline). -workers 1 bypasses all of this and is the serial
// engine, byte for byte.
type parallelState struct {
	workers int
	seed    uint64
	pool    *workerPool

	// mu guards delays: models are created lazily, usually at admission but
	// possibly from a worker on first charge of a node.
	mu     sync.RWMutex
	delays map[string]*simclock.DelayModel

	// preopened holds streams opened concurrently at admission (PreopenStreams),
	// consumed by Exec. Executor-goroutine confined.
	preopened map[*plangraph.Node]*source.Stream

	stats parStats
}

// parStats accumulates scheduling statistics for the serving stats surface.
type parStats struct {
	rounds    atomic.Int64
	parRounds atomic.Int64
	busyNS    atomic.Int64
	wallNS    atomic.Int64
	compHist  metrics.SizeHist
}

// ParallelStats reports the executor's scheduling behaviour for one shard.
type ParallelStats struct {
	// Workers is the configured pool size (0 when the executor is serial).
	Workers int
	// Rounds counts scheduling rounds since start; ParallelRounds those that
	// dispatched two or more components to the pool.
	Rounds         int64
	ParallelRounds int64
	// BusyNS sums worker time spent driving components in parallel rounds;
	// WallNS sums those rounds' wall time. Utilization is
	// BusyNS/(Workers×WallNS) — how much of the pool the shard kept busy.
	BusyNS      int64
	WallNS      int64
	Utilization float64
	// Components is the distribution of per-round component counts — the
	// round-parallelism histogram (Dist[k] = rounds that had k components).
	Components metrics.SizeStats
}

// EnableParallel turns on component-scheduled rounds on a pool of the given
// size. Must be called before any execution state exists; workers <= 1 is a
// no-op (the serial engine). The seed feeds the per-source-node delay
// models.
func (a *ATC) EnableParallel(workers int, seed uint64) {
	if workers <= 1 || a.par != nil {
		return
	}
	p := &parallelState{
		workers:   workers,
		seed:      seed,
		delays:    map[string]*simclock.DelayModel{},
		preopened: map[*plangraph.Node]*source.Stream{},
	}
	p.pool = newWorkerPool(workers)
	a.par = p
	base := a.Env.Delays
	a.Env.DelayFor = func(nodeKey string) *simclock.DelayModel {
		return p.delayFor(nodeKey, base)
	}
}

// Workers returns the parallel executor's pool size, or 1 for the serial
// engine. The state manager uses it to bound admission-side concurrency
// (group optimization, stream pre-opening).
func (a *ATC) Workers() int {
	if a.par == nil {
		return 1
	}
	return a.par.workers
}

// Close releases the parallel executor's worker pool and drops any
// pre-opened streams an aborted admission left behind. It is safe and a
// no-op on a serial controller, and idempotent.
func (a *ATC) Close() {
	if a.par != nil {
		a.par.pool.close()
		a.par.preopened = map[*plangraph.Node]*source.Stream{}
	}
}

// ParallelStats snapshots the executor's scheduling statistics (zero value
// when the executor is serial).
func (a *ATC) ParallelStats() ParallelStats {
	if a.par == nil {
		return ParallelStats{}
	}
	st := ParallelStats{
		Workers:        a.par.workers,
		Rounds:         a.par.stats.rounds.Load(),
		ParallelRounds: a.par.stats.parRounds.Load(),
		BusyNS:         a.par.stats.busyNS.Load(),
		WallNS:         a.par.stats.wallNS.Load(),
		Components:     a.par.stats.compHist.Snapshot(),
	}
	if st.WallNS > 0 && st.Workers > 0 {
		st.Utilization = float64(st.BusyNS) / (float64(st.Workers) * float64(st.WallNS))
	}
	return st
}

// delayFor resolves (creating on first use) the delay model of one source
// node: the engine's delay constants with a private RNG seeded by the node
// key, so a node's k'th remote operation costs the same at any worker count
// and any round interleaving.
func (p *parallelState) delayFor(nodeKey string, base *simclock.DelayModel) *simclock.DelayModel {
	p.mu.RLock()
	dm := p.delays[nodeKey]
	p.mu.RUnlock()
	if dm != nil {
		return dm
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if dm := p.delays[nodeKey]; dm != nil {
		return dm
	}
	h := fnv.New64a()
	h.Write([]byte(nodeKey))
	dm = base.WithRNG(dist.New(p.seed + 2*h.Sum64() + 1))
	p.delays[nodeKey] = dm
	return dm
}

// takePreopened consumes a stream opened ahead of time by PreopenStreams.
func (a *ATC) takePreopened(n *plangraph.Node) *source.Stream {
	if a.par == nil {
		return nil
	}
	st := a.par.preopened[n]
	if st != nil {
		delete(a.par.preopened, n)
	}
	return st
}

// PreopenStreams opens the given stream-source nodes' remote streams
// concurrently (bounded by the worker count) and stashes them for Exec.
// Stream opening is embarrassingly parallel — each call materialises an
// independent pushed-down expression at its database — and on admission of
// a cold multi-source query it serializes an otherwise parallelizable
// round-trip per source. Serial controllers keep opening lazily in Exec;
// errors are reported in node order so failure behaviour is deterministic.
func (a *ATC) PreopenStreams(nodes []*plangraph.Node) error {
	if a.par == nil {
		return nil
	}
	var todo []*plangraph.Node
	seen := map[*plangraph.Node]bool{}
	for _, n := range nodes {
		if n == nil || n.Kind != plangraph.SourceStream || seen[n] {
			continue
		}
		seen[n] = true
		if _, ok := a.execs[n]; ok {
			continue
		}
		if _, ok := a.par.preopened[n]; ok {
			continue
		}
		todo = append(todo, n)
	}
	if len(todo) <= 1 {
		return nil // nothing to overlap; Exec opens on demand
	}
	type opened struct {
		st  *source.Stream
		err error
	}
	out := make([]opened, len(todo))
	sem := make(chan struct{}, a.par.workers)
	var wg sync.WaitGroup
	for i, n := range todo {
		wg.Add(1)
		go func(i int, n *plangraph.Node) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			db, err := a.Fleet.DB(n.DB)
			if err != nil {
				out[i] = opened{err: err}
				return
			}
			st, err := source.OpenStream(db, n.Expr)
			out[i] = opened{st: st, err: err}
		}(i, n)
	}
	wg.Wait()
	// Stash every successful open first — even when another node failed —
	// so a retried admission over the same plan nodes reuses them instead
	// of leaking the work; then report the first failure in node order.
	for i, n := range todo {
		if out[i].err == nil {
			a.par.preopened[n] = out[i].st
		}
	}
	for i, n := range todo {
		if out[i].err != nil {
			return fmt.Errorf("atc: preopen %s: %w", n.Key, out[i].err)
		}
	}
	return nil
}

// runRoundParallel is RunRound under the parallel executor: one barrier per
// global round, each component driven on a worker with a private clock fork.
func (a *ATC) runRoundParallel() bool {
	comps := a.Components()
	p := a.par
	p.stats.rounds.Add(1)
	p.stats.compHist.Observe(len(comps))

	if len(comps) <= 1 {
		// Zero or one component: no cross-component concurrency to exploit
		// this round. Drive on the caller (per-node delay models stay in
		// force — the delay discipline is engine-wide, not per-round).
		return a.serialRound()
	}

	roundStart := time.Now() //qsys:allow wallclock: wall busy/round stats for observability only; merge order and digests ride the virtual clock
	now := a.Env.Clock.Now()
	_, virtual := a.Env.Clock.(*simclock.Virtual)
	ends := make([]time.Duration, len(comps))
	var wg sync.WaitGroup
	for i, comp := range comps {
		i, comp := i, comp
		env := a.Env
		var clk *simclock.Virtual
		if virtual {
			// Component-local timeline: components run concurrently, so
			// none may observe another's clock advances mid-round. (A real
			// clock is shared — its sleeps overlap across workers, which is
			// exactly the live-serving semantics.)
			clk = simclock.NewVirtual(now)
			env = a.Env.ForComponent(clk)
		}
		wg.Add(1)
		p.pool.submit(func() {
			defer wg.Done()
			t0 := time.Now() //qsys:allow wallclock: wall busy/round stats for observability only; merge order and digests ride the virtual clock
			for _, m := range comp {
				if m.Done {
					continue
				}
				a.driveMerge(m, env)
			}
			p.stats.busyNS.Add(int64(time.Since(t0))) //qsys:allow wallclock: wall busy/round stats for observability only; merge order and digests ride the virtual clock
			if clk != nil {
				ends[i] = clk.Now()
			}
		})
	}
	wg.Wait()
	if virtual {
		// Fixed component order for the cross-component clock aggregation.
		// AdvanceTo makes the result the max of the component end times —
		// the round took as long as its slowest component, the others
		// overlapped — and the fixed order keeps every aggregate
		// deterministic by construction.
		for _, end := range ends {
			a.Env.Clock.AdvanceTo(end)
		}
	}
	p.stats.parRounds.Add(1)
	p.stats.wallNS.Add(int64(time.Since(roundStart))) //qsys:allow wallclock: wall busy/round stats for observability only; merge order and digests ride the virtual clock

	live := a.active[:0]
	for _, m := range a.active {
		if !m.Done {
			live = append(live, m)
		}
	}
	a.compactActive(live)
	return len(a.active) > 0
}

// workerPool is a fixed set of goroutines executing submitted closures. It
// exists because rounds are frequent and small: spawning goroutines per
// round would cost more than many components' work.
type workerPool struct {
	tasks chan func()
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tasks: make(chan func(), 4*n), stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case f := <-p.tasks:
					f()
				case <-p.stop:
					return
				}
			}
		}()
	}
	return p
}

// submit enqueues a task; blocks only if the queue is full (workers drain it).
func (p *workerPool) submit(f func()) { p.tasks <- f }

// close stops the workers once all submitted rounds have completed. Only
// call between rounds (the executor owns the round lifecycle).
func (p *workerPool) close() {
	p.once.Do(func() {
		close(p.stop)
		p.wg.Wait()
	})
}
