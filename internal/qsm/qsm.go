// Package qsm implements the query state manager (§3, §6): it admits batches
// of user queries into a (possibly already running) plan graph by optimizing
// them against reusable in-memory state, grafting the resulting plan into the
// graph (§6.2), recovering historical results for late-arriving queries
// (Algorithm 2, executed in bulk per node via the ATC's Revive), registering
// rank-merge operators, feeding observed statistics back to the catalog
// (§6.1 "updated cost estimates"), and evicting state under memory pressure
// with LRU-by-size tie-break (§6.3).
package qsm

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/tuple"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/factorize"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/state"
)

// ShareMode selects how much sharing the optimizer may exploit — the four
// experimental configurations of §7.1 map onto these modes plus the grouping
// of user queries into plan graphs: ATC-UQ is ShareAll over a graph that
// holds one user query.
type ShareMode int

const (
	// ShareNone isolates every conjunctive query (ATC-CQ): each CQ is
	// optimized alone and its plan nodes are namespaced so nothing is shared,
	// not even base streams.
	ShareNone ShareMode = iota
	// ShareAll shares across every query in the graph (ATC-FULL, and within
	// each cluster of ATC-CL).
	ShareAll
)

// String names the mode.
func (m ShareMode) String() string {
	switch m {
	case ShareNone:
		return "atc-cq"
	default:
		return "atc-full"
	}
}

// OptimizeUnit selects the granularity of the optimization groups within one
// admitted batch (only meaningful under ShareAll).
type OptimizeUnit int

const (
	// UnitBatch jointly optimizes every conjunctive query of the batch in a
	// single group (§5.1's batched multi-query optimization). Search cost
	// grows steeply with batch size (Figure 11), and under a bounded search
	// budget large groups starve: most queries end up assigned raw base
	// streams instead of selective pushdowns.
	UnitBatch OptimizeUnit = iota
	// UnitUQ optimizes each user query separately while still grafting every
	// plan into the one shared graph: identical subexpressions collide on
	// their node keys, so sharing arises structurally (§6.2) rather than
	// from joint search, and optimization cost stays linear in batch size.
	// This is what a serving layer under concurrent load uses.
	UnitUQ
)

// Manager owns one plan graph's state lifecycle.
type Manager struct {
	Graph *plangraph.Graph
	ATC   *atc.ATC
	Cat   *catalog.Catalog
	CM    *costmodel.Model
	Mode  ShareMode
	// Unit selects joint versus per-user-query optimization under ShareAll.
	Unit OptimizeUnit
	// MemoryBudget bounds resident state in rows (0 = unbounded). §6.3.
	MemoryBudget int

	// State is the execution-state subsystem: the accounting ledger every
	// retained structure reports into and the optional spill tier.
	State *state.Manager

	lastUse map[*plangraph.Node]int // node -> last epoch referenced
	// plans caches optimizer decisions across admissions (plancache.go); it
	// lives exactly as long as the catalog fork its read sets refer to.
	plans *planCache
	// eagerSeed makes every endpoint buffer its whole pre-epoch log at
	// admission (EndpointSink.SeedEager), the reference the seed cursor is
	// tested against (set only by tests).
	eagerSeed bool
}

// New creates a manager, wiring a fresh execution-state subsystem (ledger,
// no spill) into the controller.
func New(g *plangraph.Graph, a *atc.ATC, cat *catalog.Catalog, cm *costmodel.Model, mode ShareMode) *Manager {
	m := &Manager{Graph: g, ATC: a, Cat: cat, CM: cm, Mode: mode,
		State:   state.NewManager(),
		lastUse: map[*plangraph.Node]int{},
		plans:   newPlanCache(),
	}
	a.BindState(m.State.Ledger, nil)
	// A spilled stream keeps its buffered-prefix accounting (evict); if the
	// segment later proves unrestorable the prefix is gone for real.
	a.SpillLost = m.forgetStreamed
	return m
}

// EnableSpill turns discard eviction into spill eviction: evicted plan
// segments serialize to per-shard disk segments under dir and revival reads
// them back (§6.3 disk tier). The resolver maps spilled base-tuple
// references back to canonical tuples; DefaultResolver builds one from the
// manager's catalog and the controller's database fleet.
func (m *Manager) EnableSpill(dir string, resolve state.TupleResolver) error {
	sp, err := state.NewSpill(dir, resolve)
	if err != nil {
		return err
	}
	m.State.AttachSpill(sp)
	m.ATC.BindState(m.State.Ledger, sp)
	return nil
}

// DefaultResolver resolves spilled tuple references through the catalog (to
// find the owning database) and the fleet's relation stores.
func (m *Manager) DefaultResolver() state.TupleResolver {
	return func(rel string, seq int64) (*tuple.Tuple, error) {
		st, err := m.Cat.Relation(rel)
		if err != nil {
			return nil, err
		}
		db, err := m.ATC.Fleet.DB(st.DB)
		if err != nil {
			return nil, err
		}
		r, err := db.Store().Relation(rel)
		if err != nil {
			return nil, err
		}
		if seq < 0 || int(seq) >= r.Cardinality() {
			return nil, fmt.Errorf("qsm: spilled ref %s[%d] out of range", rel, seq)
		}
		return r.Row(int(seq)), nil
	}
}

// Evictions returns how many state objects were evicted (§6.3).
func (m *Manager) Evictions() int { return m.State.Evictions() }

// PlanCacheStats reports the plan cache's cumulative traffic and size.
func (m *Manager) PlanCacheStats() PlanCacheStats { return m.plans.snapshot() }

// AdmitReport summarises one admission.
type AdmitReport struct {
	Epoch int
	// OptimizeWall is the real time spent in multi-query optimization — plan
	// cache lookups and inserts plus the summed searches. It is a statistic
	// only (the bench's mqo.optimize span): the virtual clock never sees it,
	// so engine latencies stay a function of the inputs.
	OptimizeWall time.Duration
	// CandidatesPerGroup records Figure 11's x-axis per optimization group
	// (one entry per group, served from the plan cache or searched).
	CandidatesPerGroup []int
	// SearchNodes sums BestPlan invocations of the searches actually run.
	SearchNodes int
	// PlanCacheHits and PlanCacheMisses partition the batch's optimization
	// groups: served from the plan cache, or paid for with a search.
	PlanCacheHits   int
	PlanCacheMisses int
	// Recovered counts the seed rows the batch's revives replayed to recover
	// history (ReplayTuples); a re-bound parked segment replays none.
	Recovered int64
}

// optGroup is one unit of optimization: a set of CQs sharing a scope.
type optGroup struct {
	scope string
	qs    []*cq.CQ
}

// Admit optimizes and grafts a batch of user queries, registering their
// rank-merge operators with the ATC. Arrival times follow each submission.
// It first feeds the statistics observed since the last admission back to
// the catalog (§6.1 "updated cost estimates"). A batch is admitted whole or
// not at all: on error, the merges registered for its earlier members are
// canceled and forgotten, and the other members' queries are unlinked and
// their endpoints removed, so nothing of the batch pins the graph.
func (m *Manager) Admit(subs []batcher.Submission, cfg mqo.Config) (_ *AdmitReport, err error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("qsm: empty batch")
	}
	m.SyncCatalog()
	registered := 0 // members whose rank-merges the ATC holds
	defer func() {
		if err == nil {
			return
		}
		for i, sub := range subs {
			if i < registered {
				m.ATC.Forget(sub.UQ.ID)
				continue
			}
			for _, q := range sub.UQ.CQs {
				m.ATC.UnlinkCQ(q.ID)
				m.Graph.RemoveEndpoint(q.ID)
			}
		}
	}()
	epoch := m.ATC.BumpEpoch()
	report := &AdmitReport{Epoch: epoch}

	groups := m.groups(subs)
	// The assignment's inputs each CQ uses: admission touches them for LRU.
	inputsByCQ := map[string][]*plangraph.Node{}

	optResults := m.optimizeGroups(groups, cfg, report)

	for gi, g := range groups {
		r := &optResults[gi]
		if r.err != nil {
			return nil, fmt.Errorf("qsm: optimize %q: %w", g.scope, r.err)
		}
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("qsm: invalid assignment for %q: %w", g.scope, err)
		}
		prevScope := m.Graph.Scope
		m.Graph.Scope = g.scope
		nodes, err := m.graft(r)
		m.Graph.Scope = prevScope
		if err != nil {
			return nil, fmt.Errorf("qsm: factorize %q: %w", g.scope, err)
		}
		r.eachUse(func(i int, cqID string) { inputsByCQ[cqID] = append(inputsByCQ[cqID], nodes[i]) })
	}

	// Graft each user query: revive terminal nodes (recovering history),
	// build entries with threshold groups, seed buffers from pre-epoch logs,
	// and register rank-merges.
	replayBefore := m.ATC.Env.Metrics.Snapshot().ReplayTuples
	for _, sub := range subs {
		uq := sub.UQ
		var entries []*operator.CQEntry
		for _, q := range uq.CQs {
			ep := m.Graph.Endpoint(q.ID)
			if ep == nil {
				return nil, fmt.Errorf("qsm: no endpoint for %s", q.ID)
			}
			x, err := m.ATC.Revive(ep.Node, epoch)
			if err != nil {
				return nil, err
			}
			m.touch(ep.Node, epoch)
			maxima := make([]float64, len(q.Atoms))
			for i, a := range q.Atoms {
				maxima[i] = m.Cat.MaxScoreOf(a.Rel)
			}
			entry := operator.NewCQEntry(q, q.Model.MaxScore(maxima), maxima)
			entry.SetAccount(m.State.Ledger.NewAccount())
			// LRU recency follows the inputs the assignment chose, not every
			// node under the endpoint: touching instead the streams
			// thresholdGroups walks and the probe inputs kept nodes no plan
			// chose warm, and scan_discard (10 s, seeds 1 and 2) read 1.0 %
			// more source tuples per search.
			for _, n := range inputsByCQ[q.ID] {
				m.touch(n, epoch)
			}
			if entry.Groups, err = m.thresholdGroups(ep); err != nil {
				return nil, err
			}
			if len(entry.Groups) == 0 {
				return nil, fmt.Errorf("qsm: %s has no streaming groups", q.ID)
			}
			sink := operator.NewEndpointSink(entry, ep.AtomMap)
			if m.eagerSeed {
				sink.SeedEager(m.ATC.Env, x.Log, epoch)
			} else {
				sink.Seed(m.ATC.Env, x.Log, epoch)
			}
			m.ATC.AttachCQ(q.ID, x, sink)
			entries = append(entries, entry)
		}
		slices.SortStableFunc(entries, func(a, b *operator.CQEntry) int { return cmp.Compare(b.U, a.U) })
		rm := operator.NewRankMerge(uq, entries)
		m.ATC.AddMerge(rm, sub.At)
		registered++
	}
	report.Recovered = m.ATC.Env.Metrics.Snapshot().ReplayTuples - replayBefore
	m.EnforceBudget()
	return report, nil
}

// thresholdGroups returns one threshold group per stream that feeds the
// endpoint's node through non-probe edges, with the stream's atoms mapped
// through every edge on the way to the CQ's atom indexes. The groups come
// from the graph, not from the admission's assignment: an endpoint can land
// on a node that existed before, fed by other streams than the optimizer
// chose, and a threshold must watch the streams that really feed it.
func (m *Manager) thresholdGroups(ep *plangraph.Endpoint) ([]*operator.ThresholdGroup, error) {
	var groups []*operator.ThresholdGroup
	var walk func(n *plangraph.Node, atoms []int) error
	walk = func(n *plangraph.Node, atoms []int) error {
		if n.Kind == plangraph.SourceStream {
			x, err := m.ATC.Exec(n)
			if err == nil {
				groups = append(groups, &operator.ThresholdGroup{Atoms: atoms, Source: x})
			}
			return err
		}
		for _, e := range n.Inputs {
			if e.Probe {
				continue
			}
			in := make([]int, len(e.AtomMap))
			for i, to := range e.AtomMap {
				in[i] = atoms[to]
			}
			if err := walk(e.From, in); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(ep.Node, append([]int(nil), ep.AtomMap...))
	return groups, err
}

// optResult carries one group's optimization outcome: the group's queries in
// canonical order, the plan-cache entry that holds its assignment (nil when
// none does), and the assignment as an mqo.Result — nil for a hit until
// something needs it bound (result).
type optResult struct {
	res   *mqo.Result
	err   error
	order []*cq.CQ
	entry *planEntry
}

// result returns the group's assignment, binding a hit's entry to the
// group's queries on first use.
func (r *optResult) result() *mqo.Result {
	if r.res == nil {
		r.res = r.entry.bind(r.order)
	}
	return r.res
}

// validate checks the assignment as mqo.Validate does: a bound one directly,
// an unbound hit over its entry's positions.
func (r *optResult) validate() error {
	if r.res == nil {
		return r.entry.validate(r.order)
	}
	return mqo.Validate(r.order, r.res.Inputs)
}

// eachUse calls f with each input's index in the assignment and the id of
// every query that uses it, input by input.
func (r *optResult) eachUse(f func(i int, cqID string)) {
	if r.entry == nil {
		for i, in := range r.res.Inputs {
			for cqID := range in.Uses {
				f(i, cqID)
			}
		}
		return
	}
	for i, in := range r.entry.inputs {
		for _, u := range in.uses {
			f(i, r.order[u.pos].ID)
		}
	}
}

// graft puts one group's assignment into the graph under the current scope
// and returns each input's node, in the assignment's input order. An entry
// whose graft record is still live only re-points its queries' endpoints;
// otherwise factorize.Build runs — the only code that creates graph
// structure — and the entry records what it produced.
func (m *Manager) graft(r *optResult) ([]*plangraph.Node, error) {
	if r.entry != nil {
		if rec := r.entry.liveGraft(m.Graph); rec != nil {
			for pos, q := range r.order {
				m.Graph.SetEndpoint(q, rec.terminals[pos], rec.atomMaps[pos])
			}
			m.plans.stats.DirectGrafts++
			return rec.inputs, nil
		}
	}
	inputs := r.result().Inputs
	if err := factorize.Build(m.Graph, r.order, inputs, m.Cat); err != nil {
		return nil, err
	}
	nodes := make([]*plangraph.Node, len(inputs))
	for i, in := range inputs {
		kind := plangraph.SourceStream
		if in.Mode == costmodel.Probe {
			kind = plangraph.SourceProbe
		}
		if nodes[i] = m.Graph.Node(m.Graph.NodeKey(kind, in.Expr.Key())); nodes[i] == nil {
			return nil, fmt.Errorf("input node %s vanished", in.Expr.Key())
		}
	}
	if r.entry != nil {
		r.entry.recordGraft(m.Graph, r.order, nodes)
	}
	return nodes, nil
}

// optimizeGroups produces every group's input assignment: from the plan cache
// where an entry's read set still matches the catalog or its certificate
// survives the moved row counts, by mqo.Optimize otherwise, equal-key groups
// of one batch sharing a single search. Every lookup runs before the first
// search and every insert after the last, so a batch's hits do not depend on
// what its own searches evict. The groups' canonical orders live in the plan
// cache's scratch until the next call. Statistics fold into the report in
// group order.
func (m *Manager) optimizeGroups(groups []optGroup, cfg mqo.Config, report *AdmitReport) []optResult {
	out := make([]optResult, len(groups))
	var keys []planKey // of the groups that missed; made at the first miss
	keyCfg := cfg.Defaults()
	c := m.plans
	clear(c.orders)
	c.orders = c.orders[:0]

	start := time.Now()            //qsys:allow wallclock: stats-only — OptimizeWall feeds the bench's mqo.optimize span, never the virtual clock
	searching := map[planKey]int{} // key -> the group of this batch that searches it
	var search, follow []int
	for i, g := range groups {
		c.orders = mqo.AppendCanonical(c.orders, g.qs)
		order := c.orders[len(c.orders)-len(g.qs) : len(c.orders) : len(c.orders)]
		c.bodies = appendBodies(c.bodies[:0], order)
		if e, res := c.lookup(c.bodies, keyCfg, order, m.CM); e != nil {
			out[i] = servePlan(e, res, order)
			report.PlanCacheHits++
			continue
		}
		out[i].order = order
		if keys == nil {
			keys = make([]planKey, len(groups))
		}
		keys[i] = planKey{bodies: string(c.bodies), cfg: keyCfg}
		if _, dup := searching[keys[i]]; dup {
			follow = append(follow, i)
		} else {
			searching[keys[i]] = i
			search = append(search, i)
		}
	}
	report.OptimizeWall += time.Since(start) //qsys:allow wallclock: stats-only — OptimizeWall feeds the bench's mqo.optimize span, never the virtual clock

	run := func(i int) {
		start := time.Now() //qsys:allow wallclock: stats-only — OptimizeWall feeds the bench's mqo.optimize span, never the virtual clock
		res, err := mqo.Optimize(out[i].order, m.CM, cfg)
		report.OptimizeWall += time.Since(start) //qsys:allow wallclock: stats-only — OptimizeWall feeds the bench's mqo.optimize span, never the virtual clock
		out[i] = optResult{res: res, err: err, order: out[i].order}
	}
	for _, i := range search {
		run(i)
	}

	start = time.Now() //qsys:allow wallclock: stats-only — OptimizeWall feeds the bench's mqo.optimize span, never the virtual clock
	for _, i := range search {
		report.PlanCacheMisses++
		if out[i].err == nil {
			out[i].entry = newPlanEntry(keys[i], out[i].order, out[i].res, m.Cat)
			c.insert(out[i].entry)
		}
	}
	report.OptimizeWall += time.Since(start) //qsys:allow wallclock: stats-only — OptimizeWall feeds the bench's mqo.optimize span, never the virtual clock
	for _, i := range follow {
		if e := out[searching[keys[i]]].entry; e != nil {
			out[i] = servePlan(e, nil, out[i].order)
			report.PlanCacheHits++
			continue
		}
		// The search this group waited on failed on something outside the
		// key (a query's scoring model); this group gets its own verdict.
		run(i)
		report.PlanCacheMisses++
	}
	c.stats.Hits += int64(report.PlanCacheHits)
	c.stats.Misses += int64(report.PlanCacheMisses)

	for _, r := range out {
		switch {
		case r.res != nil:
			report.CandidatesPerGroup = append(report.CandidatesPerGroup, r.res.CandidateCount)
			report.SearchNodes += r.res.SearchNodes
		case r.entry != nil:
			report.CandidatesPerGroup = append(report.CandidatesPerGroup, r.entry.candidates)
		}
	}
	return out
}

// servePlan serves a group from a cache entry, with the assignment the
// lookup bound (nil if it bound none), after the per-query validation
// mqo.Optimize opens with (the key covers a query's body, not its scoring
// model).
func servePlan(e *planEntry, res *mqo.Result, order []*cq.CQ) optResult {
	for _, q := range order {
		if err := q.Validate(); err != nil {
			return optResult{err: err}
		}
	}
	return optResult{res: res, order: order, entry: e}
}

// groups splits the batch into optimization units per the sharing mode.
func (m *Manager) groups(subs []batcher.Submission) []optGroup {
	switch m.Mode {
	case ShareNone:
		var out []optGroup
		for _, s := range subs {
			for _, q := range s.UQ.CQs {
				out = append(out, optGroup{scope: q.ID, qs: []*cq.CQ{q}})
			}
		}
		return out
	default:
		if m.Unit == UnitUQ {
			// One group per user query, all in the shared (unscoped) graph:
			// cross-query sharing is structural rather than searched.
			var out []optGroup
			for _, s := range subs {
				out = append(out, optGroup{scope: "", qs: s.UQ.CQs})
			}
			return out
		}
		var qs []*cq.CQ
		for _, s := range subs {
			qs = append(qs, s.UQ.CQs...)
		}
		return []optGroup{{scope: "", qs: qs}}
	}
}

func (m *Manager) touch(n *plangraph.Node, epoch int) { m.lastUse[n] = epoch }

// SyncCatalog feeds observed execution state back into the catalog so the
// next optimization round costs reuse correctly (§6.1). It visits only the
// stream execs the controller marked since the last sync — created, revived,
// read from, or of an expression whose count was forgotten — so it costs
// O(changed streams), not O(graph), and writes what a walk of every graph
// node would write: RecordStreamed keeps the largest count it is given, and
// an expression's cardinality is the same from any exec of it.
func (m *Manager) SyncCatalog() {
	m.ATC.DrainDirty(func(x *operator.NodeExec) {
		key := x.Node.Expr.Key()
		m.Cat.RecordStreamed(key, x.Stream.Pos())
		if x.Stream.Exhausted() {
			m.Cat.RecordExprCard(key, float64(x.Stream.Len()))
		}
	})
}

// forgetStreamed drops an expression's streamed count from the catalog, and
// marks its remaining streams (other scopes may hold one) for the next sync.
func (m *Manager) forgetStreamed(exprKey string) {
	m.Cat.ForgetStreamed(exprKey)
	m.ATC.MarkExpr(exprKey)
}

// StateSize reports total resident state in rows — node logs and modules
// (plus any materialised log identity sets) and the attached rank-merge
// endpoints' candidate buffers and duplicate sets — from the subsystem's
// running ledger, in O(1). AuditStateSize recomputes the same number the
// pre-subsystem way.
func (m *Manager) StateSize() int { return int(m.State.Ledger.Total()) }

// AuditStateSize recomputes resident state by rescanning the graph and the
// attached endpoints — the O(graph) accounting the ledger replaced. It must
// always equal StateSize (pinned by tests; the serving layer exposes both so
// a drift would be visible in production stats).
func (m *Manager) AuditStateSize() int {
	total := m.ATC.SinkStateRows()
	for _, n := range m.Graph.Nodes() {
		if x, ok := m.ATC.HasExec(n); ok {
			total += x.StateSize()
		}
	}
	return total
}

// ScratchSize reports the executor's pooled scratch (free-listed part
// vectors held between join arrivals) from the running ledger, in rows.
// Scratch is accounted beside StateSize, never inside it: it is reclaimable
// instantly and must not sway eviction victim choice.
func (m *Manager) ScratchSize() int { return int(m.State.Ledger.Scratch()) }

// AuditScratchSize recomputes pooled executor scratch by rescanning the
// graph; it must always equal ScratchSize.
func (m *Manager) AuditScratchSize() int {
	total := 0
	for _, n := range m.Graph.Nodes() {
		if x, ok := m.ATC.HasExec(n); ok {
			total += x.ScratchSize()
		}
	}
	return total
}

// EnforceBudget evicts currently idle state until resident state fits
// MemoryBudget (§6.3); 0 means unbounded. Each round costs one pass over the
// graph to find the victim by its ledger-tracked size.
func (m *Manager) EnforceBudget() {
	budget := m.MemoryBudget
	if budget <= 0 {
		return
	}
	for m.State.Ledger.Total() > int64(budget) {
		n := m.victim()
		if n == nil {
			return // everything live or pinned; nothing evictable
		}
		m.evict(n)
	}
}

// victim is §6.3's least-recently-used choice: among the idle, evictable
// nodes holding state, the one last referenced earliest, the larger on a
// tie, then the earlier created (plan-graph order). It returns nil when no
// node qualifies.
func (m *Manager) victim() *plangraph.Node {
	var best *plangraph.Node
	var bestUse int
	var bestRows int64
	for _, n := range m.Graph.Nodes() {
		x, ok := m.ATC.HasExec(n)
		if !ok || x.HasWork() || !m.Graph.Evictable(n) {
			continue // live, or structurally feeding cached state upstream
		}
		rows := x.Account().Rows()
		if rows == 0 {
			continue
		}
		use := m.lastUse[n]
		if best == nil || use < bestUse || (use == bestUse && rows > bestRows) {
			best, bestUse, bestRows = n, use, rows
		}
	}
	return best
}

// evict spills (when the disk tier is enabled) then removes a node's runtime
// state and detaches it from the graph. With a spill segment written, the
// catalog keeps the node's streamed-prefix accounting — the state is still
// recoverable at local cost, so the optimizer should keep pricing it as
// buffered; a discard forgets it, and a future query re-creates and re-pays
// for the expression.
func (m *Manager) evict(n *plangraph.Node) {
	spilled := m.ATC.SpillNode(n)
	m.ATC.DropExec(n)
	if n.Kind == plangraph.SourceStream && !spilled {
		m.forgetStreamed(n.Expr.Key())
	}
	m.Graph.Detach(n)
	delete(m.lastUse, n)
	m.State.NoteEviction()
}
