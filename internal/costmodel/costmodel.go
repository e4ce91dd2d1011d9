// Package costmodel prices candidate input assignments for the multi-query
// optimizer (§5.1.2). The model follows the paper's accounting: the dominant
// costs are (1) tuples streamed from remote sources into the middleware —
// paid once per input no matter how many conjunctive queries consume it —
// (2) remote random-access probes, and (3) in-memory join work; and top-k
// execution only reads a prefix of each stream, whose expected depth comes
// from the depth-estimation approach of [16,29] via the catalog. Tuples that
// earlier executions already buffered are free (§6.1 "updated cost
// estimates").
package costmodel

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/cq"
)

// Params holds the per-operation prices and tuning constants. Prices are in
// abstract cost units; the defaults mirror the experiment delay model (2 ms
// remote operations vs microsecond joins).
type Params struct {
	// StreamCost prices reading one tuple from a streaming source.
	StreamCost float64
	// ProbeCost prices one remote random-access probe.
	ProbeCost float64
	// JoinCost prices one in-memory access-module operation.
	JoinCost float64
	// Tau is τ(R) (§5.1.1): score-less relations with cardinality below Tau
	// may still be streamed; larger ones must be probed.
	Tau float64
}

// DefaultParams returns prices matching the §7 delay model.
func DefaultParams() Params {
	return Params{StreamCost: 2000, ProbeCost: 2000, JoinCost: 5, Tau: 150}
}

// Mode says how an input is accessed (§3).
type Mode int

const (
	// Stream reads the input in nonincreasing score order.
	Stream Mode = iota
	// Probe performs random access by join-key value.
	Probe
)

// String returns "stream" or "probe".
func (m Mode) String() string {
	if m == Probe {
		return "probe"
	}
	return "stream"
}

// Input is one element of an input assignment (I, I): a subexpression
// evaluated at a source, with the queries that consume it.
type Input struct {
	// Expr is the canonical pushed-down expression.
	Expr *cq.Expr
	// Mode is the access path.
	Mode Mode
	// DB is the owning database instance.
	DB string
	// Uses maps consuming CQ id -> occurrence (atom mapping) in that query.
	Uses map[string]*cq.ExprOccurrence
}

// Model prices assignments against a catalog. It holds no per-query state:
// a long-lived model prices an unbounded stream of queries, so anything
// memoized per query lives on the query itself (cq.CQ.FullExpr) and dies
// with it.
type Model struct {
	Cat    *catalog.Catalog
	Params Params
}

// New builds a cost model.
func New(cat *catalog.Catalog, p Params) *Model {
	return &Model{Cat: cat, Params: p}
}

// FullExpr returns the canonical expression of a whole query (memoized on
// the query: canonicalization is costly and BestPlan calls the cost function
// exponentially often).
func (m *Model) FullExpr(q *cq.CQ) *cq.Expr { return q.FullExpr() }

// ChooseMode applies §5.1.1's streaming rule: relations (or pushed-down
// expressions) without scoring attributes are probed rather than streamed —
// reading them as a stream cannot tighten thresholds, so the whole relation
// would be read — unless their cardinality is under τ(R). Multi-atom
// expressions are always streamed (our random-access wrappers probe base
// relations only).
func (m *Model) ChooseMode(e *cq.Expr) Mode {
	if !e.SingleAtom() {
		return Stream
	}
	st, err := m.Cat.Relation(e.Atoms[0].Rel)
	if err != nil {
		return Stream
	}
	hasConst := false
	for _, t := range e.Atoms[0].Args {
		if t.IsConst() {
			hasConst = true
		}
	}
	if st.HasScore {
		return Stream
	}
	card := st.Card
	if hasConst {
		card = m.Cat.EstimateCard(e)
	}
	if card < m.Params.Tau {
		return Stream
	}
	return Probe
}

// StreamDepth estimates how many tuples of input e a top-k execution reads,
// when the input feeds the given queries. Each consuming query needs roughly
// k of its results; if the query is expected to produce 'results' rows total
// from 'card' input rows of this stream, the needed prefix is
// card·(k/results)^(1/s) with s the query's number of streamed inputs —
// the multiplicative depth sharing of [16,29]. The input's depth is the max
// over its consumers (it is read once, at the fastest consumer's rate).
func (m *Model) StreamDepth(e *cq.Expr, uses map[string]*cq.ExprOccurrence, k int, streamsPerCQ map[string]int) float64 {
	card := math.Max(m.Cat.EstimateCard(e), 1)
	depth := 0.0
	for cqID, occ := range uses {
		full := m.FullExpr(occ.CQ)
		results := math.Max(m.Cat.EstimateCard(full), 1)
		frac := math.Min(1, float64(k)/results)
		s := float64(streamsPerCQ[cqID])
		if s < 1 {
			s = 1
		}
		d := card * math.Pow(frac, 1/s)
		if d < float64(k) {
			d = math.Min(float64(k), card)
		}
		if d > depth {
			depth = d
		}
	}
	return math.Min(depth, card)
}

// Scratch holds AssignmentCost's working maps so a caller that prices
// assignments in a tight loop (the plan search calls it at every leaf) can
// reuse them instead of allocating three maps per call. A Scratch must not
// be shared across goroutines.
type Scratch struct {
	streams map[string]int
	depths  map[string]float64
	byCQ    map[string][]*Input
}

// NewScratch builds an empty reusable Scratch.
func NewScratch() *Scratch {
	return &Scratch{
		streams: map[string]int{},
		depths:  map[string]float64{},
		byCQ:    map[string][]*Input{},
	}
}

// Depth returns the stream depth the last AssignmentCostScratch call over sc
// priced for the streamed input with expression key key.
func (sc *Scratch) Depth(key string) float64 { return sc.depths[key] }

// AssignmentCost prices a complete, valid input assignment for query set qs
// with per-query result target k.
//
//	cost = Σ_streams (depth − alreadyBuffered)·StreamCost            (shared)
//	     + Σ_queries Σ_probedInputs probes·ProbeCost                 (per CQ)
//	     + Σ_queries joinWork·JoinCost
func (m *Model) AssignmentCost(qs []*cq.CQ, inputs []*Input, k int) float64 {
	return m.AssignmentCostScratch(qs, inputs, k, NewScratch())
}

// AssignmentCostScratch is AssignmentCost with caller-owned working state;
// the result is identical for any Scratch contents.
func (m *Model) AssignmentCostScratch(qs []*cq.CQ, inputs []*Input, k int, sc *Scratch) float64 {
	// Count streamed inputs per CQ (for depth estimation).
	streamsPerCQ := sc.streams
	clear(streamsPerCQ)
	for _, in := range inputs {
		if in.Mode != Stream {
			continue
		}
		for cqID := range in.Uses {
			streamsPerCQ[cqID]++
		}
	}
	total := 0.0
	depths := sc.depths
	clear(depths)
	for _, in := range inputs {
		if in.Mode != Stream {
			continue
		}
		depth := m.StreamDepth(in.Expr, in.Uses, k, streamsPerCQ)
		depths[in.Expr.Key()] = depth
		free := float64(m.Cat.StreamedSoFar(in.Expr.Key()))
		eff := math.Max(0, depth-free)
		total += eff * m.Params.StreamCost
	}
	// Per-query probe and join work. Buckets are truncated, not deleted, so
	// steady-state reuse appends into retained capacity.
	byCQ := sc.byCQ
	for id, v := range byCQ {
		byCQ[id] = v[:0]
	}
	for _, in := range inputs {
		for cqID := range in.Uses {
			byCQ[cqID] = append(byCQ[cqID], in)
		}
	}
	for _, q := range qs {
		ins := byCQ[q.ID]
		streamed := 0.0
		for _, in := range ins {
			if in.Mode == Stream {
				streamed += depths[in.Expr.Key()]
			}
		}
		for _, in := range ins {
			if in.Mode == Probe {
				// Every streamed tuple drives roughly one probe into each
				// random-access input (probe caching deduplicates repeats).
				distinct := math.Max(m.Cat.EstimateCard(in.Expr), 1)
				probes := math.Min(streamed, distinct)
				total += probes * m.Params.ProbeCost
			}
		}
		if len(ins) > 1 {
			total += streamed * float64(len(ins)-1) * m.Params.JoinCost
		}
	}
	return total
}
