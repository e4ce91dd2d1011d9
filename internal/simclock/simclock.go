// Package simclock models the passage of time in the middleware.
//
// The paper's experiments (§7 "Delays") run over a LAN with injected random
// delays — Poisson with a 2 ms mean — for every tuple read from a data stream
// and every join probe against a remote DBMS, and measure wall-clock response
// times per user query. Reproducing those measurements with real sleeps would
// make every experiment minutes long and nondeterministic, so the clock is
// *virtual*: delays and CPU costs advance a simulated nanosecond counter, and
// nothing sleeps. Every engine — experiments, tests, benchmark and servers —
// runs on it. A plan graph is served by a single ATC "thread" (as in the
// paper), so all queries sharing a graph share one clock — which is exactly
// how the paper's contention effect (§7.1) arises. Distinct plan graphs
// (ATC-CQ, ATC-UQ, ATC-CL) get independent clocks, modelling parallel
// execution.
package simclock

import (
	"sync/atomic"
	"time"

	"repro/internal/dist"
)

// Virtual is a deterministic simulated clock. It is safe for concurrent use
// (experiment harnesses read it while an ATC goroutine advances it).
type Virtual struct {
	now atomic.Int64 // nanoseconds
}

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Duration) *Virtual {
	v := &Virtual{}
	v.now.Store(int64(start))
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration { return time.Duration(v.now.Load()) }

// Advance moves the virtual clock forward by d (negative d is ignored).
func (v *Virtual) Advance(d time.Duration) {
	if d > 0 {
		v.now.Add(int64(d))
	}
}

// AdvanceTo moves the clock to t if t is in the future.
func (v *Virtual) AdvanceTo(t time.Duration) {
	for {
		cur := v.now.Load()
		if int64(t) <= cur {
			return
		}
		if v.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// DelayModel draws the simulated costs of the three operation classes the
// paper measures (Figure 8): reading a tuple from a streaming source,
// probing a remote random-access source, and an in-memory join probe.
type DelayModel struct {
	rng *dist.RNG
	// StreamMean and ProbeMean are the Poisson means for remote operations.
	StreamMean time.Duration
	ProbeMean  time.Duration
	// JoinCost is the fixed CPU cost charged per in-memory hash probe or
	// insert; it is deterministic (local work has no network variance).
	JoinCost time.Duration
	// SpillRowCost is the fixed local-I/O cost charged per row read back
	// from a spilled plan segment (§6.3's disk tier): sequential local disk,
	// so deterministic and orders of magnitude below a remote stream read.
	SpillRowCost time.Duration
}

// DefaultDelays mirrors §7: Poisson(mean 2 ms) per stream read and per remote
// probe. Stream delays pace each stream's *delivery* timeline (tuples flow
// into connection buffers in the background, as with the paper's JDBC
// streams); the middleware blocks only when it outruns a stream. Probes are
// synchronous round trips and block the ATC thread. The join CPU cost
// approximates a hash probe plus result assembly in the paper's 2006-era
// Java middleware (~20 µs), which is what makes CPU contention visible when
// many queries share one ATC (§6.1, §7.1).
func DefaultDelays(rng *dist.RNG) *DelayModel {
	return &DelayModel{
		rng:          rng,
		StreamMean:   2 * time.Millisecond,
		ProbeMean:    2 * time.Millisecond,
		JoinCost:     20 * time.Microsecond,
		SpillRowCost: 1 * time.Microsecond,
	}
}

// poisson draws a Poisson-distributed duration with the given mean, at 100 µs
// granularity so small means still vary (mean 2 ms → Poisson(20) ticks).
func (m *DelayModel) poisson(mean time.Duration) time.Duration {
	const tick = 100 * time.Microsecond
	if mean <= 0 {
		return 0
	}
	n := dist.Poisson(m.rng, float64(mean)/float64(tick))
	return time.Duration(n) * tick
}

// StreamRead returns the delay for reading one tuple from a streaming source.
func (m *DelayModel) StreamRead() time.Duration { return m.poisson(m.StreamMean) }

// RemoteProbe returns the delay for one probe against a random-access source.
func (m *DelayModel) RemoteProbe() time.Duration { return m.poisson(m.ProbeMean) }

// Join returns the CPU cost of one in-memory join operation.
func (m *DelayModel) Join() time.Duration { return m.JoinCost }

// SpillRead returns the local-I/O cost of reading n rows back from a
// spilled segment. It draws nothing from the RNG, so enabling the spill
// tier perturbs no other delay sequence.
func (m *DelayModel) SpillRead(n int) time.Duration {
	return time.Duration(n) * m.SpillRowCost
}
