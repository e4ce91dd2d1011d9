package operator

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/plangraph"
	"repro/internal/source"
	"repro/internal/state"
	"repro/internal/tuple"
)

// NodeExec is the runtime state of one plan-graph node: the opened source for
// stream/probe nodes, or the m-join machinery (access modules, join
// predicates, adaptive probe orders) for join nodes. Every node also carries
// its output Log — the arrival-ordered, epoch-tagged row history that powers
// state reuse (§6).
type NodeExec struct {
	Node *plangraph.Node

	// Stream is set for SourceStream nodes.
	Stream *source.Stream
	// RA is set for SourceProbe nodes.
	RA *source.RandomAccess

	// modules holds one access module per join input (join nodes only).
	modules []*AccessModule
	// preds are the node expression's join predicates in node atom space.
	preds []cq.JoinPred
	// cov[i][a] reports whether input i covers node atom a (precomputed from
	// the edge atom maps; edges partition the node's atoms, §4.1).
	cov [][]bool
	// plans caches the compiled probe plan per driving input: the adaptive
	// probe sequence with each step's oriented lookup predicate, verify list
	// and probe-source base column resolved once instead of on every probe of
	// every tuple. A nil entry is stale and recompiled on next use.
	plans [][]probeStep
	// stats tracks per (drive, probed) fanout for adaptation [24].
	stats map[[2]int]*probeStat
	// arrivals counts rows per input since the last adaptation.
	arrivals []int

	// scratchPartials / scratchNext are the reusable frontier buffers of
	// joinSeeds; probeBuf is the reusable candidate buffer of probeModule;
	// seedBuf collects RecoverHistory's replayed seeds. They hold only
	// transient per-call state — nothing downstream retains the containers.
	scratchPartials [][]*tuple.Tuple
	scratchNext     [][]*tuple.Tuple
	probeBuf        []partialRow
	seedBuf         [][]*tuple.Tuple

	// vecPool free-lists node-arity part vectors recycled from consumed
	// intermediate join frontiers; vecAccounted is how many pooled vectors
	// the ledger's scratch dimension currently reflects. Pooled vectors are
	// fully overwritten before reuse (probeModule copies all positions), so
	// they are never cleared on recycle.
	vecPool      [][]*tuple.Tuple
	vecAccounted int

	// Log is the node's output history.
	Log *Log

	// consumers are downstream join nodes fed by this node's output (the
	// fan-out across several consumers is the split operator).
	consumers []consumerBinding
	// sinks are rank-merge endpoints fed by this node's output.
	sinks []*EndpointSink

	// raResolve maps a probe-source node to its opened RandomAccess; the ATC
	// installs it so operator need not import the executor.
	raResolve func(*plangraph.Node) *source.RandomAccess

	// acct is the node's ledger account (§6.3 incremental accounting): the
	// log and every module report their size deltas into it, so the state
	// manager's budget check never rescans the graph.
	acct *state.Account

	// HistoryComplete marks that the node's log held every combination of
	// its module rows when it was last revived or live. Parking keeps it (it
	// changes neither); a revive whose top-up adds module rows recovers
	// before relying on it. It is ATC bookkeeping kept on the exec so it
	// lives and dies with the node's runtime state.
	HistoryComplete bool
	// CatalogDirty marks a source-stream exec whose stream position or
	// exhaustion the catalog may not reflect yet: the ATC sets it when it
	// creates the exec, reads from it, or is told the expression's count was
	// forgotten, and the state manager's catalog sync clears it. ATC
	// bookkeeping, kept on the exec like HistoryComplete.
	CatalogDirty bool
}

type consumerBinding struct {
	edge   *plangraph.Edge
	target *NodeExec
}

type probeStat struct {
	probes  float64
	outputs float64
}

// probeStep is one compiled step of a probe plan: everything probeModule
// needs that is invariant per (node, driving input, probed input) — the
// paper's m-join re-derives this on every tuple; we pay it only when the
// adaptive order itself is recomputed.
type probeStep struct {
	// j is the probed input.
	j int
	// edge is the probed input's plan edge.
	edge *plangraph.Edge
	// probe marks a remote random-access input.
	probe bool
	// lookup, when hasLookup, is the equality predicate used for the hash/key
	// lookup, oriented as (bound atom, bound col) -> (j atom, j col).
	lookup    cq.JoinPred
	hasLookup bool
	// verify holds the remaining predicates between bound atoms and j's
	// coverage, same orientation.
	verify []cq.JoinPred
	// baseCol is the probe source's base-relation column behind lookup
	// (probe inputs only).
	baseCol int
	// inv maps node atom -> producer part position for probe inputs (inverse
	// of edge.AtomMap; -1 outside the input's coverage).
	inv []int
	// stat is the (drive, j) fanout accumulator, resolved at compile time so
	// the per-arrival path does no map lookups.
	stat *probeStat
}

// adaptEvery is how many arrivals pass between probe-order recomputations.
const adaptEvery = 64

// maxPooledVecs caps a node's part-vector free list so idle nodes do not pin
// unbounded tuple references between arrivals.
const maxPooledVecs = 256

// NewNodeExec builds runtime state for a plan node. Sources are opened by
// the caller (the executor knows the database fleet).
func NewNodeExec(n *plangraph.Node) *NodeExec {
	x := &NodeExec{
		Node:  n,
		Log:   &Log{},
		stats: map[[2]int]*probeStat{},
	}
	if n.Kind == plangraph.Join {
		x.preds = n.Expr.JoinPreds()
		x.modules = make([]*AccessModule, len(n.Inputs))
		x.cov = make([][]bool, len(n.Inputs))
		for i, e := range n.Inputs {
			x.modules[i] = NewAccessModule(e.AtomMap)
			x.cov[i] = make([]bool, len(n.Expr.Atoms))
			for _, a := range e.AtomMap {
				x.cov[i][a] = true
			}
		}
		x.plans = make([][]probeStep, len(n.Inputs))
		x.arrivals = make([]int, len(n.Inputs))
	}
	return x
}

// SetAccount wires the node's log and modules to a ledger account (set once
// by the ATC when the exec is created).
func (x *NodeExec) SetAccount(a *state.Account) {
	x.acct = a
	x.Log.SetAccount(a)
	for _, m := range x.modules {
		m.SetAccount(a)
	}
}

// Account returns the node's ledger account (nil outside an engine).
func (x *NodeExec) Account() *state.Account { return x.acct }

// ImportLog reinstalls spilled log rows with their original epochs (§6.3
// revival from the disk tier). The log must be empty.
func (x *NodeExec) ImportLog(rows []*tuple.Row, epochs []int) {
	for i, r := range rows {
		x.Log.Append(r, epochs[i])
	}
}

// ImportModuleRows reinstalls spilled module rows — already in node atom
// space — into input j's module with their original epochs.
func (x *NodeExec) ImportModuleRows(j int, parts [][]*tuple.Tuple, epochs []int) {
	for i, ps := range parts {
		x.modules[j].Insert(ps, epochs[i])
	}
}

// AddConsumer wires a downstream join node.
func (x *NodeExec) AddConsumer(edge *plangraph.Edge, target *NodeExec) {
	if x.Feeds(edge) {
		return
	}
	x.consumers = append(x.consumers, consumerBinding{edge, target})
}

// AddSink wires a rank-merge endpoint.
func (x *NodeExec) AddSink(s *EndpointSink) {
	for _, old := range x.sinks {
		if old == s {
			return
		}
	}
	x.sinks = append(x.sinks, s)
}

// RemoveSink detaches an endpoint (CQ completion, §6.3).
func (x *NodeExec) RemoveSink(s *EndpointSink) {
	for i, old := range x.sinks {
		if old == s {
			x.sinks = append(x.sinks[:i], x.sinks[i+1:]...)
			return
		}
	}
}

// RemoveConsumerEdge detaches the runtime binding for a structural edge
// (parking, §6.3); the plan-graph edge itself is kept for future revival.
func (x *NodeExec) RemoveConsumerEdge(e *plangraph.Edge) {
	for i, c := range x.consumers {
		if c.edge == e {
			x.consumers = append(x.consumers[:i], x.consumers[i+1:]...)
			return
		}
	}
}

// Feeds reports whether the runtime binding for a structural edge is in
// place (parking removes it).
func (x *NodeExec) Feeds(e *plangraph.Edge) bool {
	for _, c := range x.consumers {
		if c.edge == e {
			return true
		}
	}
	return false
}

// HasWork reports whether anything still consumes this node's output.
func (x *NodeExec) HasWork() bool { return len(x.consumers) > 0 || len(x.sinks) > 0 }

// Module returns the i'th access module (tests and the state manager).
func (x *NodeExec) Module(i int) *AccessModule { return x.modules[i] }

// Frontier returns the score-product bound on this stream source's unread
// rows. Only meaningful for SourceStream nodes.
func (x *NodeExec) Frontier() float64 {
	if x.Stream == nil {
		return 0
	}
	return x.Stream.Frontier()
}

// Exhausted reports whether the stream source has no more rows.
func (x *NodeExec) Exhausted() bool { return x.Stream == nil || x.Stream.Exhausted() }

// ReadOne pulls one row from this stream source with a synchronous fetch:
// the ATC thread blocks for the round trip (§7's per-tuple stream delay),
// exactly like the paper's JDBC fetches — which is why queries sharing one
// ATC contend for its read bandwidth (§7.1). The row is logged and pipelined
// through every consumer (split semantics). It returns false when the stream
// is exhausted.
func (x *NodeExec) ReadOne(env *Env, epoch int) bool {
	if x.Stream == nil {
		return false
	}
	r := x.Stream.Next()
	if r == nil {
		return false
	}
	env.ChargeStreamRead()
	x.deliver(env, r, epoch)
	return true
}

// deliver logs one of the node's output rows and pipelines it downstream:
// it is offered to every endpoint sink, then handed to every consumer m-join,
// whose cascade completes before the next row is logged. With several
// consumers this is the split operator's interleave — consumer A sees row i
// before consumer B, and B sees row i before A sees row i+1 — which is
// observable in downstream adaptation stats.
func (x *NodeExec) deliver(env *Env, r *tuple.Row, epoch int) {
	x.Log.Append(r, epoch)
	for _, s := range x.sinks {
		s.Offer(env, r)
	}
	for _, c := range x.consumers {
		c.target.arrive(env, r, c.edge, epoch)
	}
}

// arrive handles a row landing on one input of a join node (§4.1): it is
// translated into node space straight into its slot in the input's access
// module, probed against the other modules following the adaptive probe
// sequence, and each complete join result is delivered downstream (fully
// pipelined). Every adaptEvery arrivals on an input its probe plan is
// recompiled from the fanout stats of every earlier cascade.
func (x *NodeExec) arrive(env *Env, r *tuple.Row, edge *plangraph.Edge, epoch int) {
	if x.Node.Kind != plangraph.Join {
		panic("operator: arrive on non-join node " + x.Node.Key)
	}
	idx := edge.InputIdx
	seed := [1][]*tuple.Tuple{x.modules[idx].insertRow(r, edge.AtomMap, len(x.Node.Expr.Atoms), epoch)}
	env.Metrics.AddJoinInsert()
	env.ChargeJoin()
	x.arrivals[idx]++
	if x.arrivals[idx]%adaptEvery == 1 {
		x.plans[idx] = nil
	}
	for _, out := range x.joinSeeds(env, idx, seed[:], MaxEpochLive) {
		x.deliver(env, out, epoch)
	}
}

// joinSeeds extends newly arrived partial rows across all other inputs,
// returning the complete join results seed by seed: the frontier is
// step-major, and within every step partials are probed one by one in
// frontier order, so each seed's finished descendants precede the next
// seed's at every step — the output sequence is the concatenation of the
// per-seed outputs. maxEpoch restricts which stored rows participate
// (MaxEpochLive for live arrivals; the graft epoch during state recovery,
// §6.2). Intermediate frontiers live in per-node scratch buffers and consumed
// intermediate part vectors are recycled through the node's free list; only
// the returned rows keep their vectors.
func (x *NodeExec) joinSeeds(env *Env, drive int, seeds [][]*tuple.Tuple, maxEpoch int) []*tuple.Row {
	if len(seeds) == 0 {
		return nil
	}
	steps := x.probePlan(drive)
	cur := append(x.scratchPartials[:0], seeds...)
	next := x.scratchNext[:0]
	for si := range steps {
		if len(cur) == 0 {
			break
		}
		st := &steps[si]
		next = next[:0]
		for _, p := range cur {
			before := len(next)
			next = x.probeModule(env, st, p, maxEpoch, next)
			st.stat.probes++
			st.stat.outputs += float64(len(next) - before)
		}
		if si > 0 {
			// The vectors in cur were merged outputs of the previous step and
			// are fully consumed now: recycle them. Step-0 inputs are the
			// seeds — owned by the driving module — and the final frontier's
			// vectors transfer to the returned rows; neither is pooled.
			x.recycleVecs(cur)
		}
		cur, next = next, cur
	}
	// Hand the (possibly swapped, possibly grown) buffers back for reuse; the
	// part vectors inside cur are transferred to the returned rows.
	x.scratchPartials, x.scratchNext = cur[:0], next[:0]
	x.syncScratch()
	if len(cur) == 0 {
		return nil
	}
	out := make([]*tuple.Row, len(cur))
	for i, p := range cur {
		out[i] = tuple.NewRow(p...)
	}
	return out
}

// getVec returns a node-arity part vector from the free list, or a fresh one.
func (x *NodeExec) getVec(n int) []*tuple.Tuple {
	if k := len(x.vecPool); k > 0 {
		v := x.vecPool[k-1]
		x.vecPool[k-1] = nil
		x.vecPool = x.vecPool[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]*tuple.Tuple, n)
}

// recycleVecs returns consumed intermediate part vectors to the free list,
// up to the pool cap.
func (x *NodeExec) recycleVecs(vecs [][]*tuple.Tuple) {
	for _, v := range vecs {
		if len(x.vecPool) >= maxPooledVecs {
			return
		}
		x.vecPool = append(x.vecPool, v)
	}
}

// syncScratch settles the ledger's scratch dimension with the free list's
// current size (one delta per joinSeeds call instead of two atomics per
// vector).
func (x *NodeExec) syncScratch() {
	if d := len(x.vecPool) - x.vecAccounted; d != 0 {
		x.acct.AddScratch(d)
		x.vecAccounted = len(x.vecPool)
	}
}

// ScratchSize reports the node's pooled scratch in rows (ledger audit).
func (x *NodeExec) ScratchSize() int { return len(x.vecPool) }

// ReleaseScratch drops the node's pooled scratch memory — the part-vector
// free list and the transient frontier/candidate/seed buffers — and settles
// the ledger's scratch dimension. The ATC calls it whenever the node parks,
// so idle or evicted nodes hold no hidden pools.
func (x *NodeExec) ReleaseScratch() {
	x.vecPool = nil
	x.syncScratch()
	x.scratchPartials, x.scratchNext = nil, nil
	x.probeBuf, x.seedBuf = nil, nil
}

// probeModule finds the rows of the step's input joinable with the bound
// positions of p, appending merged part vectors to dst. Remote random-access
// inputs are probed through their source (cached middleware-side); stored
// inputs are probed through their hash index.
func (x *NodeExec) probeModule(env *Env, st *probeStep, p []*tuple.Tuple, maxEpoch int, dst [][]*tuple.Tuple) [][]*tuple.Tuple {
	if st.probe {
		// Remote random-access source.
		if !st.hasLookup {
			// Not yet connected: cannot probe remotely without a key. The
			// connectivity-aware probe order avoids this; treat as empty.
			return dst
		}
		key := p[st.lookup.AtomA].Val(st.lookup.ColA)
		rows, cached, err := x.RAOf(st.edge).Probe(st.baseCol, key)
		if err != nil {
			panic(fmt.Sprintf("operator: probe %s: %v", st.edge.From.Key, err))
		}
		if cached {
			env.Metrics.AddProbeCacheHit()
			env.ChargeJoin()
		} else {
			env.ChargeRemoteProbe(len(rows))
		}
		for _, r := range rows {
			ok := true
			for _, vp := range st.verify {
				pv := p[vp.AtomA]
				cv := r.Part(st.inv[vp.AtomB])
				if pv == nil || cv == nil || !pv.Val(vp.ColA).Equal(cv.Val(vp.ColB)) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			merged := x.getVec(len(p))
			copy(merged, p)
			for fi, ti := range st.edge.AtomMap {
				merged[ti] = r.Part(fi)
			}
			dst = append(dst, merged)
		}
		return dst
	}

	env.Metrics.AddJoinProbe()
	env.ChargeJoin()
	x.probeBuf = x.probeBuf[:0]
	if st.hasLookup {
		x.probeBuf = x.modules[st.j].AppendProbe(x.probeBuf, st.lookup.AtomB, st.lookup.ColB, p[st.lookup.AtomA].Val(st.lookup.ColA), maxEpoch)
	} else {
		x.modules[st.j].EachBefore(maxEpoch, func(pr partialRow) { x.probeBuf = append(x.probeBuf, pr) })
	}
	for _, cand := range x.probeBuf {
		ok := true
		for _, vp := range st.verify {
			pv := p[vp.AtomA]
			cv := cand.parts[vp.AtomB]
			if pv == nil || cv == nil || !pv.Val(vp.ColA).Equal(cv.Val(vp.ColB)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		merged := x.getVec(len(p))
		copy(merged, p)
		for pos, t := range cand.parts {
			if t != nil {
				merged[pos] = t
			}
		}
		dst = append(dst, merged)
	}
	return dst
}

// RAOf resolves the random-access source behind a probe edge. The executor
// fills raResolver; indirection keeps operator free of executor imports.
func (x *NodeExec) RAOf(edge *plangraph.Edge) *source.RandomAccess {
	if x.raResolve == nil {
		panic("operator: probe edge without random-access resolver on " + x.Node.Key)
	}
	ra := x.raResolve(edge.From)
	if ra == nil {
		panic("operator: no random-access source for " + edge.From.Key)
	}
	return ra
}

// SetRAResolver installs the probe-source resolver (set once by the ATC).
func (x *NodeExec) SetRAResolver(f func(*plangraph.Node) *source.RandomAccess) { x.raResolve = f }

// baseColFor translates a node-space (atom, col) into the probe source's base
// relation column. Probe sources are single-atom pushdowns whose argument
// list aligns positionally with the base relation's columns, so the column
// index carries over unchanged; this asserts that invariant instead of
// silently assuming it (a multi-atom probe source would need a real
// translation through the edge's atom map).
func (x *NodeExec) baseColFor(edge *plangraph.Edge, nodeAtom, col int) int {
	if len(edge.From.Expr.Atoms) != 1 || len(edge.AtomMap) != 1 {
		panic(fmt.Sprintf("operator: probe source %s is not single-atom (%d atoms)", edge.From.Key, len(edge.From.Expr.Atoms)))
	}
	if edge.AtomMap[0] != nodeAtom {
		panic(fmt.Sprintf("operator: probe column for atom %d but %s covers atom %d", nodeAtom, edge.From.Key, edge.AtomMap[0]))
	}
	return col
}

// probePlan returns (compiling if stale) the probe plan for a driving input:
// a connectivity-respecting order over the other inputs — cheapest observed
// fanout first, remote probes deferred on ties — with each step's lookup
// orientation, verify list and base column resolved.
func (x *NodeExec) probePlan(drive int) []probeStep {
	if plan := x.plans[drive]; plan != nil {
		return plan
	}
	n := len(x.Node.Inputs)
	nAtoms := len(x.Node.Expr.Atoms)
	bound := make([]bool, nAtoms)
	for _, a := range x.Node.Inputs[drive].AtomMap {
		bound[a] = true
	}
	remaining := n - 1
	pending := make([]bool, n)
	for j := 0; j < n; j++ {
		pending[j] = j != drive
	}
	steps := make([]probeStep, 0, remaining)
	for remaining > 0 {
		best := -1
		bestKey := [3]float64{}
		for j := 0; j < n; j++ {
			if !pending[j] {
				continue
			}
			connected := x.connectsTo(j, bound)
			fan := x.fanout(drive, j)
			remote := 0.0
			if x.Node.Inputs[j].Probe {
				remote = 1
			}
			disc := 0.0
			if !connected {
				disc = 1
			}
			key := [3]float64{disc, fan, remote*0.5 + float64(j)*1e-9}
			if best < 0 || less3(key, bestKey) {
				best, bestKey = j, key
			}
		}
		steps = append(steps, x.compileStep(drive, best, bound))
		for _, a := range x.Node.Inputs[best].AtomMap {
			bound[a] = true
		}
		pending[best] = false
		remaining--
	}
	x.plans[drive] = steps
	return steps
}

// compileStep resolves one probe step against the bound-atom set in effect
// when the step runs. The bound set at step k is exactly the union of the
// drive input's coverage and the previously probed inputs' coverages: every
// stored or merged partial is non-nil precisely on its inputs' coverage, so
// the compile-time orientation matches what the per-tuple code used to
// re-derive.
func (x *NodeExec) compileStep(drive, j int, bound []bool) probeStep {
	edge := x.Node.Inputs[j]
	st := probeStep{j: j, edge: edge, probe: edge.Probe, stat: x.stat(drive, j)}
	jc := x.cov[j]
	for _, p0 := range x.preds {
		var pr cq.JoinPred
		switch {
		case jc[p0.AtomB] && !jc[p0.AtomA] && bound[p0.AtomA]:
			pr = p0
		case jc[p0.AtomA] && !jc[p0.AtomB] && bound[p0.AtomB]:
			pr = cq.JoinPred{AtomA: p0.AtomB, ColA: p0.ColB, AtomB: p0.AtomA, ColB: p0.ColA}
		default:
			continue
		}
		if !st.hasLookup {
			st.lookup, st.hasLookup = pr, true
		} else {
			st.verify = append(st.verify, pr)
		}
	}
	if st.probe {
		st.inv = make([]int, len(x.Node.Expr.Atoms))
		for i := range st.inv {
			st.inv[i] = -1
		}
		for fi, ti := range edge.AtomMap {
			st.inv[ti] = fi
		}
		if st.hasLookup {
			st.baseCol = x.baseColFor(edge, st.lookup.AtomB, st.lookup.ColB)
		}
	}
	return st
}

func less3(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func (x *NodeExec) connectsTo(j int, bound []bool) bool {
	jc := x.cov[j]
	for _, p := range x.preds {
		if (jc[p.AtomA] && bound[p.AtomB]) || (jc[p.AtomB] && bound[p.AtomA]) {
			return true
		}
	}
	return false
}

func (x *NodeExec) stat(i, j int) *probeStat {
	k := [2]int{i, j}
	st, ok := x.stats[k]
	if !ok {
		st = &probeStat{}
		x.stats[k] = st
	}
	return st
}

func (x *NodeExec) fanout(i, j int) float64 {
	st := x.stats[[2]int{i, j}]
	if st == nil || st.probes == 0 {
		return 1.0
	}
	return st.outputs / st.probes
}

// RecoverHistory computes the node's all-old join results — every
// combination whose parts all arrived before epoch e and is not already in
// the node's log — charging the in-memory join work, appending the missing
// results to the log tagged e-1, and returning how many were recovered. This
// is Algorithm 2 in bulk per-node form (see DESIGN.md): the recovered rows
// are routed only to newly grafted consumers via the log; live consumers
// already received every combination involving a newer row.
func (x *NodeExec) RecoverHistory(env *Env, e int) int {
	if x.Node.Kind != plangraph.Join {
		return 0
	}
	drive := -1
	for i, edge := range x.Node.Inputs {
		if !edge.Probe {
			drive = i
			break
		}
	}
	if drive < 0 {
		return 0
	}
	have := x.Log.IdentitySet()
	// Replay the driving module's pre-epoch rows as one seed list; the
	// replay charges are hoisted ahead of the (order-insensitive) cascade
	// charges.
	seeds := x.seedBuf[:0]
	x.modules[drive].EachBefore(e, func(pr partialRow) {
		env.Metrics.AddReplayTuple()
		env.ChargeJoin()
		seeds = append(seeds, pr.parts)
	})
	x.seedBuf = seeds
	var results []*tuple.Row
	for _, out := range x.joinSeeds(env, drive, seeds, e) {
		if have.Add(out) {
			results = append(results, out)
		}
	}
	sort.SliceStable(results, func(i, j int) bool {
		si, sj := results[i].ScoreProduct(), results[j].ScoreProduct()
		if si != sj {
			return si > sj
		}
		return results[i].Identity() < results[j].Identity()
	})
	for _, r := range results {
		x.Log.Append(r, e-1)
	}
	return len(results)
}

// PreloadModule inserts into input j's module, with their original epochs,
// the rows its producer logged at index from or later, and returns how many
// it inserted (graft-time state transfer; no stream delay is charged — the
// rows are already in middleware memory).
func (x *NodeExec) PreloadModule(j int, producer *Log, from int) int {
	m, atomMap, width := x.modules[j], x.Node.Inputs[j].AtomMap, len(x.Node.Expr.Atoms)
	n := m.Len()
	producer.eachFrom(from, func(r *tuple.Row, epoch int) {
		m.insertRow(r, atomMap, width, epoch)
	})
	return m.Len() - n
}

// StateSize reports the node's resident state in rows (modules + log + the
// log's materialised identity set) for the §6.3 memory accounting.
func (x *NodeExec) StateSize() int {
	n := x.Log.Len() + x.Log.IdentCount()
	for _, m := range x.modules {
		n += m.Len()
	}
	return n
}
