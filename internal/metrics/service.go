package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Gauge is a concurrency-safe integer gauge (e.g. requests in flight).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter is a concurrency-safe monotonic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// LatencyHist is a lock-free histogram of durations with power-of-two
// nanosecond buckets, good for percentile estimates across nine orders of
// magnitude. The zero value is ready to use.
type LatencyHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [64]atomic.Int64 // bucket i counts d with bits.Len64(ns) == i
}

// Observe records one duration.
func (h *LatencyHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding it, clamped to the observed maximum. Returns 0 when empty.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			upper := int64(1)<<uint(i) - 1
			if m := h.maxNS.Load(); upper > m {
				upper = m
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(h.maxNS.Load())
}

// LatencyStats is an immutable summary of a LatencyHist.
type LatencyStats struct {
	Count int64
	Mean  time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Snapshot summarises the histogram.
func (h *LatencyHist) Snapshot() LatencyStats {
	st := LatencyStats{
		Count: h.count.Load(),
		Max:   time.Duration(h.maxNS.Load()),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	if st.Count > 0 {
		st.Mean = time.Duration(h.sumNS.Load() / st.Count)
	}
	return st
}

// sizeBuckets caps the linear occupancy histogram; larger sizes clamp into
// the last bucket.
const sizeBuckets = 65

// SizeHist is a lock-free linear histogram of small counts (e.g. how many
// queries each released batch carried). The zero value is ready to use.
type SizeHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	maxSeen atomic.Int64
	buckets [sizeBuckets]atomic.Int64
}

// Observe records one size.
func (h *SizeHist) Observe(n int) {
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(n))
	for {
		cur := h.maxSeen.Load()
		if int64(n) <= cur || h.maxSeen.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	i := n
	if i >= sizeBuckets {
		i = sizeBuckets - 1
	}
	h.buckets[i].Add(1)
}

// SizeStats is an immutable summary of a SizeHist.
type SizeStats struct {
	Count int64
	Mean  float64
	Max   int64
	// Dist maps observed size -> occurrences (only non-empty buckets).
	Dist map[int]int64
}

// Snapshot summarises the histogram.
func (h *SizeHist) Snapshot() SizeStats {
	st := SizeStats{Count: h.count.Load(), Max: h.maxSeen.Load(), Dist: map[int]int64{}}
	if st.Count > 0 {
		st.Mean = float64(h.sum.Load()) / float64(st.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			st.Dist[i] = n
		}
	}
	return st
}

// Service aggregates the serving-layer counters of one query service: request
// lifecycle counts, admission-batch occupancy, and latency distributions.
// All fields are safe for concurrent use.
type Service struct {
	// InFlight counts requests accepted into the service and not yet
	// responded to; Queued counts those still waiting in an admission window.
	InFlight Gauge
	Queued   Gauge

	// Requests counts every Search call that produced a candidate-network
	// expansion; Completed / Canceled / Rejected partition their outcomes.
	Requests  Counter
	Completed Counter
	Canceled  Counter
	Rejected  Counter

	// Overload-control outcomes. Shed totals the pre-admission load sheds,
	// split by cause into ShedUserRate (per-user/fair-share token bucket) and
	// ShedQueueFull (shard admission queue at MaxPending); both are safely
	// retryable — the query never reached admission. DeadlineCanceled counts
	// admitted queries whose merge was canceled past its latency budget;
	// those are NOT retryable and are not part of Shed.
	Shed             Counter
	ShedUserRate     Counter
	ShedQueueFull    Counter
	DeadlineCanceled Counter

	// Batches counts admission batches released to the optimizer;
	// BatchOccupancy records how many queries each carried (>1 means the
	// batch was multi-query-optimized together, §3).
	Batches        Counter
	BatchOccupancy SizeHist

	// Per-decision routing counters (multi-shard services; §6.1's clustering
	// at serving scale). RouteAffinity counts queries placed by measured
	// overlap with a shard's resident keyword set; RouteHash those placed by
	// the fixed keyword hash (all of them in hash mode, the no-affinity
	// fallback otherwise); RouteSharingMiss decisions that landed away from
	// the shard best covering the query — placements that re-pay source
	// reads for state already resident elsewhere.
	RouteAffinity    Counter
	RouteHash        Counter
	RouteSharingMiss Counter

	// WallLatency measures enqueue-to-response wall time (includes admission
	// wait); EngineLatency measures the engine clock's admission-to-finish
	// time (the paper's response-time notion).
	WallLatency   LatencyHist
	EngineLatency LatencyHist
}

// ServiceSnapshot is an immutable copy of a Service's state.
type ServiceSnapshot struct {
	InFlight  int64
	Queued    int64
	Requests  int64
	Completed int64
	Canceled  int64
	Rejected  int64
	Batches   int64

	Shed             int64
	ShedUserRate     int64
	ShedQueueFull    int64
	DeadlineCanceled int64

	RouteAffinity    int64
	RouteHash        int64
	RouteSharingMiss int64

	BatchOccupancy SizeStats
	WallLatency    LatencyStats
	EngineLatency  LatencyStats
}

// Snapshot copies the current values.
func (s *Service) Snapshot() ServiceSnapshot {
	return ServiceSnapshot{
		InFlight:         s.InFlight.Value(),
		Queued:           s.Queued.Value(),
		Requests:         s.Requests.Value(),
		Completed:        s.Completed.Value(),
		Canceled:         s.Canceled.Value(),
		Rejected:         s.Rejected.Value(),
		Batches:          s.Batches.Value(),
		Shed:             s.Shed.Value(),
		ShedUserRate:     s.ShedUserRate.Value(),
		ShedQueueFull:    s.ShedQueueFull.Value(),
		DeadlineCanceled: s.DeadlineCanceled.Value(),
		RouteAffinity:    s.RouteAffinity.Value(),
		RouteHash:        s.RouteHash.Value(),
		RouteSharingMiss: s.RouteSharingMiss.Value(),
		BatchOccupancy:   s.BatchOccupancy.Snapshot(),
		WallLatency:      s.WallLatency.Snapshot(),
		EngineLatency:    s.EngineLatency.Snapshot(),
	}
}

// Add merges two summaries of the same kind of sizes observed in different
// places (one engine's admission batches and another's): counts and the
// distribution add exactly, the maximum is the larger, and the mean is
// re-weighted by count.
func (s SizeStats) Add(o SizeStats) SizeStats {
	out := SizeStats{Count: s.Count + o.Count, Max: max(s.Max, o.Max), Dist: map[int]int64{}}
	if out.Count > 0 {
		out.Mean = (s.Mean*float64(s.Count) + o.Mean*float64(o.Count)) / float64(out.Count)
	}
	for k, n := range s.Dist {
		out.Dist[k] += n
	}
	for k, n := range o.Dist {
		out.Dist[k] += n
	}
	return out
}
