package qsm

import (
	"container/list"
	"math"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/plangraph"
)

// The plan cache shares the optimizer's own work across arrivals: keyword
// traffic collapses onto a small set of recurring user queries, and
// mqo.Optimize is a function of the set of query bodies (it processes its
// group in mqo.CanonicalOrder), the search configuration, and the catalog
// feedback it reads. An entry keeps the chosen assignment position-wise over
// the canonical order together with that feedback — its read set — and a
// lookup serves it only while the search would return it again:
//
//   - every value read still agrees with the live catalog; or
//   - only row counts (Catalog.StreamedSoFar) moved, and the entry's
//     certificate proves the search would still pick the assignment. The
//     search's leaves do not depend on row counts, which enter a leaf's cost
//     only as max(0, depth − buffered)·StreamCost and so move it by at most
//     what the key's depth range allows. The lookup re-prices the assignment
//     exactly and serves it iff that cost is strictly below a lower bound
//     on every other leaf: the runner-up's cost carried to the live row
//     counts (planEntry.recheck).
//
// Any other change — an observed cardinality, or a bound the re-priced cost
// does not clear — forces a search. So a hit returns exactly what the search
// would, cost included: the cache changes when a plan is found, never which
// plan. An entry also keeps the catalog generation (catalog.Catalog.Gen) at
// which its read set last agreed with the catalog: while the generation has
// not moved no value can have changed, so the lookup serves the entry without
// comparing a single read.
//
// An entry also remembers where its plan last went in the graph (graftRecord):
// the plan graph is the plan cache's second half. While every node a record
// names is still the live node under its key, factorize.Build over the same
// assignment would find all of them and create nothing that survives, so a hit
// re-points its queries' endpoints from the record and skips Build.

// planCacheCap bounds the cache in entries (least recently used goes first).
// An entry is a few KB — a handful of inputs and one read per AND-OR memo
// key — so the whole cache stays in the low megabytes; that is why it is
// capped by a constant and not accounted in the row ledger.
const planCacheCap = 256

// PlanCacheStats counts the plan cache's traffic since the manager was built.
type PlanCacheStats struct {
	// Hits and Misses partition the optimization groups admitted: a group is
	// either served from an entry or pays for a search.
	Hits   int64
	Misses int64
	// Rechecked counts the hits on an entry whose row counts had moved, served
	// because its re-priced cost cleared the runner-up bound.
	Rechecked int64
	// Stale counts the misses that found an entry the catalog had moved past:
	// an observed cardinality changed, or row counts changed and the re-priced
	// cost did not clear the bound.
	Stale int64
	// Entries is the current size (at most planCacheCap).
	Entries int
	// DirectGrafts counts the groups grafted from an entry's graft record,
	// without running factorize.Build.
	DirectGrafts int64
}

// planKey identifies a group: its query bodies in canonical order and the
// defaulted search configuration.
type planKey struct {
	bodies string
	cfg    mqo.Config
}

// appendBodies appends the planKey bodies of a group in canonical order to
// buf: the query bodies, one per line.
func appendBodies(buf []byte, order []*cq.CQ) []byte {
	for i, q := range order {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, q.BodyKey()...)
	}
	return buf
}

// planRead is one catalog value the search could consult for an expression
// key: the buffered stream prefix and the observed cardinality (or that none
// was observed). Relation statistics are not part of it — they are fully
// registered before the catalog is forked and immutable after. dmax and dmin
// are the key's mqo.KeyDepth (0 when no leaf streamed it).
type planRead struct {
	key        string
	streamed   int
	card       float64
	observed   bool
	dmax, dmin float64
}

// planUse is one consumer of a cached input: the query's position in the
// group's canonical order and the input's atom mapping into it.
type planUse struct {
	pos    int
	atomOf []int
}

type planInput struct {
	expr *cq.Expr
	mode costmodel.Mode
	db   string
	uses []planUse
}

type planEntry struct {
	key        planKey
	inputs     []planInput // in the search's output order (by expression key)
	cost       float64
	candidates int
	reads      []planRead
	// runnerUp is a lower bound on the cost of every other leaf of the
	// search under the catalog values in reads: mqo.Result.RunnerUp, then
	// the bound that served the last recheck.
	runnerUp float64
	// gen is the catalog generation at which reads last agreed with the
	// catalog.
	gen   uint64
	graft *graftRecord
}

// graftRecord is what the entry's last factorize.Build grafted, under one
// graph scope: per canonical position the query's terminal node and endpoint
// atom map, and per input (in the entry's input order) its source node.
// It holds detached nodes only to compare them by identity; their execution
// state lives in the ATC and goes with them.
type graftRecord struct {
	scope     string
	terminals []*plangraph.Node
	atomMaps  [][]int
	inputs    []*plangraph.Node
}

// recordGraft notes the graft factorize.Build just made for order.
func (e *planEntry) recordGraft(g *plangraph.Graph, order []*cq.CQ, inputs []*plangraph.Node) {
	r := &graftRecord{scope: g.Scope, inputs: inputs,
		terminals: make([]*plangraph.Node, len(order)), atomMaps: make([][]int, len(order))}
	for pos, q := range order {
		ep := g.Endpoint(q.ID)
		r.terminals[pos], r.atomMaps[pos] = ep.Node, ep.AtomMap
	}
	e.graft = r
}

// liveGraft returns the entry's graft record if it applies to g as it stands:
// same scope, and every node it names still the live node under its key (a
// node evicted and re-created since is a different node).
func (e *planEntry) liveGraft(g *plangraph.Graph) *graftRecord {
	r := e.graft
	if r == nil || r.scope != g.Scope {
		return nil
	}
	for _, ns := range [][]*plangraph.Node{r.terminals, r.inputs} {
		for _, n := range ns {
			if g.Node(n.Key) != n {
				return nil
			}
		}
	}
	return r
}

// newPlanEntry captures a finished search: the assignment with query ids
// replaced by canonical positions, the certificate, and the catalog values
// behind every expression key the search could have read — each AND-OR memo
// key (candidates, single-atom completions, the cardinalities the pruning
// heuristics compare), each query's full expression (the depth estimate) and
// the chosen inputs. It must run before anything mutates the catalog again,
// so the values recorded are the ones the search saw.
func newPlanEntry(key planKey, order []*cq.CQ, res *mqo.Result, cat *catalog.Catalog) *planEntry {
	e := &planEntry{key: key, cost: res.Cost, candidates: res.CandidateCount, runnerUp: res.RunnerUp, gen: cat.Gen()}
	at := map[string]int{}
	read := func(k string) int {
		if i, ok := at[k]; ok {
			return i
		}
		at[k] = len(e.reads)
		r := planRead{key: k, streamed: cat.StreamedSoFar(k)}
		r.card, r.observed = cat.ObservedCard(k)
		e.reads = append(e.reads, r)
		return at[k]
	}
	for _, k := range res.Memo.Keys() {
		read(k)
	}
	for _, q := range order {
		read(q.FullExpr().Key())
	}
	for _, in := range res.Inputs {
		read(in.Expr.Key())
		pi := planInput{expr: in.Expr, mode: in.Mode, db: in.DB}
		for pos, q := range order {
			if occ, ok := in.Uses[q.ID]; ok {
				pi.uses = append(pi.uses, planUse{pos: pos, atomOf: occ.AtomOf})
			}
		}
		e.inputs = append(e.inputs, pi)
	}
	for _, d := range res.Depths {
		r := &e.reads[read(d.Key)]
		r.dmax, r.dmin = d.Max, d.Min
	}
	return e
}

// recheckMargin is the relative margin by which a re-priced cost must clear
// the runner-up bound: the bound is summed in floating point, so a cost
// within rounding of it proves nothing.
const recheckMargin = 1e-9

// recheck compares the entry's reads with the live catalog. A changed
// observed cardinality makes it stale. Otherwise it reports whether any row
// count moved and the runner-up bound carried to the live row counts, with
// the rounding margin the bound is cleared by. For each key, every other
// leaf's stream term max(0, d − f)·StreamCost moves from f to f′ by
//
//	−StreamCost·(min(d,f′) − min(d,f))  ≥  −StreamCost·(min(dmax,f′) − min(dmax,f))  when read deeper,
//	 StreamCost·(min(d,f) − min(d,f′))  ≥   StreamCost·(min(dmin,f) − min(dmin,f′))  when lowered,
//
// since min(d,·) is monotone in d, and a leaf that does not stream the key
// moves by 0: dmin is 0 unless every leaf streams it.
func (e *planEntry) recheck(cat *catalog.Catalog, streamCost float64) (moved, stale bool, bound, margin float64) {
	bound, margin = e.runnerUp, math.Abs(e.runnerUp)
	for _, r := range e.reads {
		if card, ok := cat.ObservedCard(r.key); ok != r.observed || card != r.card {
			return false, true, 0, 0
		}
		live := cat.StreamedSoFar(r.key)
		if live == r.streamed {
			continue
		}
		moved = true
		f, g := float64(r.streamed), float64(live)
		var term float64
		if g > f {
			term = -streamCost * (math.Min(r.dmax, g) - math.Min(r.dmax, f))
		} else {
			term = streamCost * (math.Min(r.dmin, f) - math.Min(r.dmin, g))
		}
		bound += term
		margin += math.Abs(term)
	}
	return moved, false, bound, margin * recheckMargin
}

// bind rebuilds the search result for a group with the entry's key: the
// stored inputs, with each use rebound to the query now at that canonical
// position. Expressions and atom mappings are immutable and shared.
func (e *planEntry) bind(order []*cq.CQ) *mqo.Result {
	inputs := make([]*costmodel.Input, len(e.inputs))
	for i, pi := range e.inputs {
		uses := make(map[string]*cq.ExprOccurrence, len(pi.uses))
		for _, u := range pi.uses {
			q := order[u.pos]
			uses[q.ID] = &cq.ExprOccurrence{CQ: q, AtomOf: u.atomOf}
		}
		inputs[i] = &costmodel.Input{Expr: pi.expr, Mode: pi.mode, DB: pi.db, Uses: uses}
	}
	return &mqo.Result{Inputs: inputs, Cost: e.cost, CandidateCount: e.candidates}
}

// validate is mqo.Validate over the entry's assignment bound to order — the
// same checks in the same order, the same error — read off the canonical
// positions without binding. An input holds at most one use per position.
func (e *planEntry) validate(order []*cq.CQ) error {
	return mqo.ValidateBy(order, len(e.inputs),
		func(i int) (*cq.Expr, costmodel.Mode) { return e.inputs[i].expr, e.inputs[i].mode },
		func(i, pos int) ([]int, bool) {
			for _, u := range e.inputs[i].uses {
				if u.pos == pos {
					return u.atomOf, true
				}
			}
			return nil, false
		})
}

// planCache is a bounded LRU of plan entries. It is confined to the
// goroutine that runs Admit: lookups happen before the optimizer's worker
// fan-out and inserts after it. The map is only ever indexed, never ranged —
// recency order lives in the list.
type planCache struct {
	byKey map[planKey]*list.Element // of *planEntry
	lru   *list.List                // front = most recently used
	stats PlanCacheStats
	// bodies and orders are scratch for one batch's lookups: the key bodies
	// of the group being looked up (appendBodies), and every group's
	// canonical order. A hit copies neither; a miss's key is copied into
	// its entry.
	bodies []byte
	orders []*cq.CQ
}

func newPlanCache() *planCache {
	return &planCache{byKey: map[planKey]*list.Element{}, lru: list.New()}
}

// lookup returns the entry for the group with the given key bodies
// (appendBodies) and configuration if the search would return its assignment
// under the live catalog: the catalog is at the generation the entry last
// agreed with, or its read set still holds, or only row counts moved and the
// exactly re-priced assignment clears the runner-up bound. A served recheck
// moves the entry to the live row counts, the new cost and the carried bound,
// and returns the assignment it re-priced, bound to order; any other hit
// returns a nil result (optResult.result binds it when needed). Any other
// entry is stale and dropped on the spot: the search that follows the miss
// replaces it.
func (c *planCache) lookup(bodies []byte, cfg mqo.Config, order []*cq.CQ, cm *costmodel.Model) (*planEntry, *mqo.Result) {
	el, ok := c.byKey[planKey{bodies: string(bodies), cfg: cfg}]
	if !ok {
		return nil, nil
	}
	e := el.Value.(*planEntry)
	gen := cm.Cat.Gen()
	if e.gen == gen {
		c.lru.MoveToFront(el)
		return e, nil
	}
	moved, stale, bound, margin := e.recheck(cm.Cat, cm.Params.StreamCost)
	var res *mqo.Result
	if !stale && moved {
		res = e.bind(order)
		res.Cost = cm.AssignmentCost(order, res.Inputs, cfg.K)
		// An infinite bound (the search priced no other assignment) is
		// cleared by any cost.
		stale = !math.IsInf(bound, 1) && res.Cost >= bound-margin
		if !stale {
			for i := range e.reads {
				e.reads[i].streamed = cm.Cat.StreamedSoFar(e.reads[i].key)
			}
			e.cost, e.runnerUp = res.Cost, bound
			c.stats.Rechecked++
		}
	}
	if stale {
		c.stats.Stale++
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		return nil, nil
	}
	e.gen = gen
	c.lru.MoveToFront(el)
	return e, res
}

// insert adds the entry of a search that followed a miss on its key (so the
// key is absent: lookup dropped whatever was there) and evicts from the cold
// end past the cap.
func (c *planCache) insert(e *planEntry) {
	c.byKey[e.key] = c.lru.PushFront(e)
	for c.lru.Len() > planCacheCap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*planEntry).key)
	}
}

func (c *planCache) snapshot() PlanCacheStats {
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}
