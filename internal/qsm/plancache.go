package qsm

import (
	"container/list"
	"strings"

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
// lookup serves it only while the live catalog still agrees with every value
// read. So §6.1 feedback, a discard eviction's ForgetStreamed, a lost spill
// segment and a topic import all force a miss by construction, and a hit
// returns exactly what the search would: the cache changes when a plan is
// found, never which plan.
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
	// Stale counts the misses that found an entry whose read set no longer
	// matched the catalog.
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

func planKeyOf(order []*cq.CQ, cfg mqo.Config) planKey {
	bodies := make([]string, len(order))
	for i, q := range order {
		bodies[i] = q.BodyKey()
	}
	return planKey{bodies: strings.Join(bodies, "\n"), cfg: cfg}
}

// planRead is one catalog value the search could consult for an expression
// key: the buffered stream prefix and the observed cardinality (or that none
// was observed). Relation statistics are not part of it — they are fully
// registered before the catalog is forked and immutable after.
type planRead struct {
	key      string
	streamed int
	card     float64
	observed bool
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
	graft      *graftRecord
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
// replaced by canonical positions, and the catalog values behind every
// expression key the search could have read — each AND-OR memo key
// (candidates, single-atom completions, the cardinalities the pruning
// heuristics compare), each query's full expression (the depth estimate) and
// the chosen inputs. It must run before anything mutates the catalog again,
// so the values recorded are the ones the search saw.
func newPlanEntry(key planKey, order []*cq.CQ, res *mqo.Result, cat *catalog.Catalog) *planEntry {
	e := &planEntry{key: key, cost: res.Cost, candidates: res.CandidateCount}
	seen := map[string]bool{}
	read := func(k string) {
		if seen[k] {
			return
		}
		seen[k] = true
		r := planRead{key: k, streamed: cat.StreamedSoFar(k)}
		r.card, r.observed = cat.ObservedCard(k)
		e.reads = append(e.reads, r)
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
	return e
}

// fresh reports whether the catalog still holds every value the entry's
// search read.
func (e *planEntry) fresh(cat *catalog.Catalog) bool {
	for _, r := range e.reads {
		if cat.StreamedSoFar(r.key) != r.streamed {
			return false
		}
		if card, ok := cat.ObservedCard(r.key); ok != r.observed || card != r.card {
			return false
		}
	}
	return true
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

// planCache is a bounded LRU of plan entries. It is confined to the
// goroutine that runs Admit: lookups happen before the optimizer's worker
// fan-out and inserts after it. The map is only ever indexed, never ranged —
// recency order lives in the list.
type planCache struct {
	byKey map[planKey]*list.Element // of *planEntry
	lru   *list.List                // front = most recently used
	stats PlanCacheStats
}

func newPlanCache() *planCache {
	return &planCache{byKey: map[planKey]*list.Element{}, lru: list.New()}
}

// lookup returns the entry for key if the catalog still agrees with its read
// set. A stale entry is dropped on the spot: the search that follows the miss
// replaces it.
func (c *planCache) lookup(key planKey, cat *catalog.Catalog) *planEntry {
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	e := el.Value.(*planEntry)
	if !e.fresh(cat) {
		c.stats.Stale++
		c.lru.Remove(el)
		delete(c.byKey, key)
		return nil
	}
	c.lru.MoveToFront(el)
	return e
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
