// Package catalog maintains the statistics the optimizer costs plans with
// (§5.1.2) and that the query state manager keeps updated across executions
// (§3: "maintains cardinality information about intermediate results ...
// such that the query optimizer can determine what can be reused").
//
// Statistics follow the classic System-R shape: relation cardinalities,
// per-column distinct counts, score maxima, and independence-based join
// selectivities, plus the top-k depth estimate of [16,29] that predicts how
// deep into a score-ordered stream a query must read to produce k results.
package catalog

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/relationdb"
	"repro/internal/tuple"
)

// RelStats summarises one relation.
type RelStats struct {
	// Name is the relation name; DB the owning instance.
	Name string
	DB   string
	// Card is the relation cardinality.
	Card float64
	// Distinct[i] is the distinct-value count of column i.
	Distinct []float64
	// MaxScore is the top score of the relation's scoring attribute
	// (tuple.NeutralScore for score-less relations).
	MaxScore float64
	// HasScore reports whether the relation has a scoring attribute — the
	// streamability condition of §5.1.1.
	HasScore bool
	// Schema is the relation schema.
	Schema *tuple.Schema
}

// Catalog holds statistics for every relation visible to the middleware and
// answers estimation queries about expressions.
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*RelStats
	// streamedSoFar tracks, per input expression key, how many result tuples
	// earlier executions already streamed into middleware state — the §6.1
	// "updated cost estimates" feed, maintained by the query state manager.
	streamedSoFar map[string]int
	// exprCard caches observed cardinalities of executed subexpressions,
	// preferred over estimates when present (§3).
	exprCard map[string]float64
	// estCache memoises pure estimates (invalidated by observations).
	estCache map[string]float64
	// gen counts the feedback writes that changed a value (Gen).
	gen atomic.Uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		rels:          map[string]*RelStats{},
		streamedSoFar: map[string]int{},
		exprCard:      map[string]float64{},
		estCache:      map[string]float64{},
	}
}

// Fork returns a catalog sharing this catalog's (read-only, fully registered)
// relation statistics but with private execution-feedback state. Each plan
// graph gets a fork: reuse accounting (§6.1) is middleware-state-local, so an
// isolated graph must not see another graph's buffered-tuple counts. A fork
// counts its own generations from 0. Callers must finish registering
// relations before forking.
func (c *Catalog) Fork() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &Catalog{
		rels:          c.rels,
		streamedSoFar: map[string]int{},
		exprCard:      map[string]float64{},
		estCache:      map[string]float64{},
	}
}

// AddRelation registers (or refreshes) stats computed from a stored relation.
func (c *Catalog) AddRelation(db string, rel *relationdb.Relation) {
	s := rel.Schema()
	st := &RelStats{
		Name:     s.Name(),
		DB:       db,
		Card:     float64(rel.Cardinality()),
		Distinct: make([]float64, s.NumCols()),
		MaxScore: rel.MaxScore(),
		HasScore: s.HasScore(),
		Schema:   s,
	}
	for i := 0; i < s.NumCols(); i++ {
		st.Distinct[i] = float64(rel.DistinctCount(i))
	}
	c.mu.Lock()
	c.rels[s.Name()] = st
	c.mu.Unlock()
}

// AddStats registers stats directly (used when relations are lazy and the
// workload generator knows the intended shape without materialising data).
func (c *Catalog) AddStats(st *RelStats) {
	c.mu.Lock()
	c.rels[st.Name] = st
	c.mu.Unlock()
}

// Relation returns stats for the named relation.
func (c *Catalog) Relation(name string) (*RelStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return st, nil
}

// MustRelation is Relation for trusted callers.
func (c *Catalog) MustRelation(name string) *RelStats {
	st, err := c.Relation(name)
	if err != nil {
		panic(err)
	}
	return st
}

// Relations returns all known relation names, sorted.
func (c *Catalog) Relations() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.rels))
	for n := range c.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- Expression estimation -------------------------------------------------

// EstimateCard estimates the result cardinality of an expression using
// independence assumptions: Π card(atom) × Π joinSel × Π constSel. When a
// previous execution recorded the expression's true cardinality, that
// observation wins (§3, §6.1).
func (c *Catalog) EstimateCard(e *cq.Expr) float64 {
	c.mu.RLock()
	if obs, ok := c.exprCard[e.Key()]; ok {
		c.mu.RUnlock()
		return obs
	}
	if est, ok := c.estCache[e.Key()]; ok {
		c.mu.RUnlock()
		return est
	}
	c.mu.RUnlock()
	card := 1.0
	for _, a := range e.Atoms {
		st, err := c.Relation(a.Rel)
		if err != nil {
			// Unknown relation: assume a mid-sized table so planning can
			// proceed; the state manager will correct it after execution.
			card *= 1000
			continue
		}
		card *= math.Max(st.Card, 1)
		for ci, t := range a.Args {
			if t.IsConst() {
				card *= constSelectivity(st, ci)
			}
		}
	}
	for _, p := range e.JoinPreds() {
		card *= c.joinSelectivity(e.Atoms[p.AtomA], p.ColA, e.Atoms[p.AtomB], p.ColB)
	}
	if card < 0 {
		card = 0
	}
	c.mu.Lock()
	c.estCache[e.Key()] = card
	c.mu.Unlock()
	return card
}

func constSelectivity(st *RelStats, col int) float64 {
	if col < len(st.Distinct) && st.Distinct[col] > 0 {
		return 1 / st.Distinct[col]
	}
	return 0.1
}

func (c *Catalog) joinSelectivity(a *cq.Atom, ca int, b *cq.Atom, cb int) float64 {
	da, db := 100.0, 100.0
	if st, err := c.Relation(a.Rel); err == nil && ca < len(st.Distinct) && st.Distinct[ca] > 0 {
		da = st.Distinct[ca]
	}
	if st, err := c.Relation(b.Rel); err == nil && cb < len(st.Distinct) && st.Distinct[cb] > 0 {
		db = st.Distinct[cb]
	}
	return 1 / math.Max(da, db)
}

// ExpensiveJoin reports whether the expression contains a join that is not
// key/foreign-key-like: both sides' join columns have many duplicates. The
// §5.1.1 utility filter prunes such subexpressions from pushdown candidates.
func (c *Catalog) ExpensiveJoin(e *cq.Expr) bool {
	for _, p := range e.JoinPreds() {
		if c.duplication(e.Atoms[p.AtomA], p.ColA) > 4 && c.duplication(e.Atoms[p.AtomB], p.ColB) > 4 {
			return true
		}
	}
	return false
}

// duplication estimates average duplicates per value in a column.
func (c *Catalog) duplication(a *cq.Atom, col int) float64 {
	st, err := c.Relation(a.Rel)
	if err != nil || col >= len(st.Distinct) || st.Distinct[col] == 0 {
		return 1
	}
	return st.Card / st.Distinct[col]
}

// TopKDepth estimates how many tuples a score-ordered stream over e must
// deliver for the consuming queries to produce k results, following the
// depth-estimation idea of [16,29]: if the queries need k results and this
// input joins into an expected 'fanout' results per input tuple, the expected
// depth is k/fanout, clamped to the input's cardinality.
func (c *Catalog) TopKDepth(e *cq.Expr, k int, fanout float64) float64 {
	card := c.EstimateCard(e)
	if fanout <= 0 {
		fanout = 1e-9
	}
	depth := float64(k) / fanout
	return math.Min(math.Max(depth, 1), math.Max(card, 1))
}

// --- Execution feedback (§3, §6.1) ------------------------------------------

// RecordStreamed notes that an execution has streamed n tuples of input key
// into middleware state; the optimizer subtracts these from future costs.
func (c *Catalog) RecordStreamed(key string, n int) {
	c.mu.Lock()
	if n > c.streamedSoFar[key] {
		c.streamedSoFar[key] = n
		c.gen.Add(1)
	}
	c.mu.Unlock()
}

// StreamedSoFar returns how many tuples of the input are already buffered.
func (c *Catalog) StreamedSoFar(key string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.streamedSoFar[key]
}

// ForgetStreamed clears reuse accounting for an evicted input (§6.3).
func (c *Catalog) ForgetStreamed(key string) {
	c.mu.Lock()
	if _, ok := c.streamedSoFar[key]; ok {
		delete(c.streamedSoFar, key)
		c.gen.Add(1)
	}
	c.mu.Unlock()
}

// RecordExprCard records an observed expression cardinality, which overrides
// (and invalidates) the pure estimate.
func (c *Catalog) RecordExprCard(key string, card float64) {
	c.mu.Lock()
	if old, ok := c.exprCard[key]; !ok || old != card {
		c.exprCard[key] = card
		c.gen.Add(1)
	}
	delete(c.estCache, key)
	c.mu.Unlock()
}

// Gen returns the feedback generation: the number of RecordStreamed,
// ForgetStreamed and RecordExprCard calls that changed a value the catalog
// returns. Nothing else moves it, so while it is unchanged every
// StreamedSoFar and ObservedCard answer is the one read at that generation.
func (c *Catalog) Gen() uint64 { return c.gen.Load() }

// ObservedCard returns the cardinality an execution recorded for the
// expression, and whether one was recorded. Together with StreamedSoFar it is
// everything EstimateCard and the cost model read from the catalog's
// execution feedback for a key, so a cached optimizer decision can check
// that what it was computed under still holds.
func (c *Catalog) ObservedCard(key string) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	card, ok := c.exprCard[key]
	return card, ok
}

// MaxScoreOf returns the maximum score of the named relation (neutral when
// unknown), used to initialise thresholds (§6.2).
func (c *Catalog) MaxScoreOf(rel string) float64 {
	st, err := c.Relation(rel)
	if err != nil || !st.HasScore {
		return tuple.NeutralScore
	}
	return st.MaxScore
}
