package operator

import (
	"container/heap"
	"math"
	"time"

	"repro/internal/cq"
	"repro/internal/scoring"
	"repro/internal/state"
	"repro/internal/tuple"
)

// Result is one top-k answer delivered to a user.
type Result struct {
	// UQID / CQID identify which user query and which conjunctive query
	// produced the answer.
	UQID, CQID string
	// Score is the answer's score under the query's model.
	Score float64
	// Row holds the answer's base tuples in the CQ's atom order.
	Row *tuple.Row
	// At is the (virtual) time the answer was emitted.
	At time.Duration
}

// EntryState tracks a conjunctive query's lifecycle inside a rank-merge.
type EntryState int

const (
	// Pending: not yet activated — the query state manager activates CQs
	// incrementally, in nonincreasing U(C) order, only when their upper
	// bound could still beat the emission gate (§3, Table 4).
	Pending EntryState = iota
	// Active: reading inputs and producing candidates.
	Active
	// Pruned: deactivated because its threshold fell below the kth
	// candidate (§6.3); buffered candidates remain eligible.
	Pruned
	// Complete: all inputs exhausted and buffer drained.
	Complete
)

// String names the state.
func (s EntryState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Pruned:
		return "pruned"
	default:
		return "complete"
	}
}

// ThresholdGroup ties one streaming input of a CQ to the threshold formula:
// the input covers Atoms (CQ atom indexes) and its unseen rows have score
// product at most Source.Frontier().
type ThresholdGroup struct {
	Atoms  []int
	Source *NodeExec
}

// CQEntry is the per-conjunctive-query state inside a rank-merge operator.
type CQEntry struct {
	CQ *cq.CQ
	// U is the query's overall score upper bound (activation order).
	U float64
	// State is the lifecycle state.
	State EntryState
	// Groups lists the query's streaming inputs for threshold maintenance.
	Groups []*ThresholdGroup

	maxima []float64
	buffer candidateHeap
	// cur, when set, holds the pre-epoch log rows the entry was seeded with
	// that are not yet in buffer; see EndpointSink.Seed.
	cur *seedCursor
	// seen deduplicates offered rows by identity hash (§4.1 rank-merge; it is
	// released when the CQ is unlinked, §6.3, and counted by SeenLen).
	seen *identSet
	dups int
	// acct, when set, tracks buffered candidates plus seen-set entries in
	// the state ledger (endpoint state the row counts never see, §6.3).
	acct *state.Account

	// Threshold memoisation: thresholds change only when a group's stream
	// frontier moves, so the last frontier vector is snapshotted.
	thCache     float64
	thFrontiers []float64
	thSource    *NodeExec
	thValid     bool
}

// NewCQEntry builds an entry. maxima holds the per-atom score maxima in CQ
// atom order.
func NewCQEntry(q *cq.CQ, u float64, maxima []float64) *CQEntry {
	return &CQEntry{CQ: q, U: u, maxima: append([]float64(nil), maxima...), seen: newIdentSet(0)}
}

// Threshold returns the NRA/HRJN-style corner bound on any future (unseen)
// result of this query: the max over non-exhausted streaming inputs of the
// score bound when that input's unseen product cap constrains its atoms and
// every other atom sits at its maximum (§4.1; see scoring.Model.Bound).
// It is -Inf when no input can produce new rows.
func (e *CQEntry) Threshold() float64 {
	e.refresh()
	return e.thCache
}

// PreferredSource returns the non-exhausted streaming input whose bound
// matches the threshold — the stream whose advance "will drop the score
// threshold the most" (§4.1) — or nil.
func (e *CQEntry) PreferredSource() *NodeExec {
	e.refresh()
	return e.thSource
}

// refresh recomputes the memoised threshold when any frontier moved.
func (e *CQEntry) refresh() {
	if e.thFrontiers == nil {
		e.thFrontiers = make([]float64, len(e.Groups))
		for i := range e.thFrontiers {
			e.thFrontiers[i] = math.NaN()
		}
	}
	dirty := !e.thValid
	for i, g := range e.Groups {
		f := g.Source.Frontier()
		if f != e.thFrontiers[i] {
			e.thFrontiers[i] = f
			dirty = true
		}
	}
	if !dirty {
		return
	}
	best := math.Inf(-1)
	var src *NodeExec
	for i, g := range e.Groups {
		if e.thFrontiers[i] == 0 && g.Source.Exhausted() {
			continue
		}
		b := e.CQ.Model.BoundSingleGroup(e.maxima, g.Atoms, e.thFrontiers[i])
		if b > best {
			best, src = b, g.Source
		}
	}
	e.thCache, e.thSource, e.thValid = best, src, true
}

// BufferLen returns the number of buffered candidates (memory accounting),
// counting the seeded rows the cursor has not pulled yet.
func (e *CQEntry) BufferLen() int { return len(e.buffer) + e.unpulled() }

// unpulled returns how many seeded rows are still behind the cursor.
func (e *CQEntry) unpulled() int {
	if e.cur == nil {
		return 0
	}
	return e.cur.left
}

// Duplicates returns how many duplicate rows the entry rejected (tests
// assert this stays zero — Algorithm 2's epoch partitioning must prevent
// re-derivation).
func (e *CQEntry) Duplicates() int { return e.dups }

// SeenLen reports the duplicate-set size in entries (§6.3 memory accounting:
// the seen set is resident state invisible to the row counts): the pulled
// rows the set holds plus the unpulled seeded rows it will hold, until
// DropSeen releases both.
func (e *CQEntry) SeenLen() int {
	if e.seen == nil {
		return 0
	}
	return e.seen.Len() + e.unpulled()
}

// SetAccount wires the entry to a ledger account, crediting current state.
func (e *CQEntry) SetAccount(a *state.Account) {
	e.acct = a
	a.Add(e.BufferLen() + e.SeenLen())
}

// Account returns the entry's ledger account (nil outside an engine).
func (e *CQEntry) Account() *state.Account { return e.acct }

// DropSeen releases the duplicate-elimination set. The ATC calls it when the
// CQ is unlinked (§6.3): a detached sink receives no further offers, so the
// set — which otherwise grows with every distinct result ever offered — can
// be reclaimed while buffered candidates stay eligible for emission.
func (e *CQEntry) DropSeen() {
	e.acct.Add(-e.SeenLen())
	e.seen = nil
}

// EndpointSink adapts a terminal node's output into a CQ entry: rows arrive
// in node atom order and are re-oriented into CQ atom order before scoring.
type EndpointSink struct {
	Entry *CQEntry
	// AtomMap maps node expression atom positions to CQ atom indexes.
	AtomMap []int
	scores  []float64 // scratch
}

// NewEndpointSink wires an entry to a terminal node.
func NewEndpointSink(entry *CQEntry, atomMap []int) *EndpointSink {
	return &EndpointSink{Entry: entry, AtomMap: atomMap, scores: make([]float64, len(atomMap))}
}

// Offer scores and buffers one output row. Duplicates are rejected on the
// producer row's cached identity (identity is part-order invariant, so the
// node-order row and its CQ-order projection share one) before any
// projection or scoring work is spent on them.
func (s *EndpointSink) Offer(env *Env, r *tuple.Row) {
	if s.add(r) {
		s.Entry.acct.Add(2) // one seen entry, one buffered candidate
		heap.Fix(&s.Entry.buffer, len(s.Entry.buffer)-1)
	}
}

// Seed gives the entry every row the log holds from before epoch — results
// the graph computed before this query arrived, reused without charging a
// source read — as a cursor over the log's product index, not as buffered
// candidates: the rank-merge pulls a row (projects it, scores it, adds it to
// the seen set and the buffer) only once it could be the entry's next
// answer, so a warm search pays for the answers it emits, not for the log.
// The ledger is charged at once what eager seeding charges, one seen entry
// and one buffered candidate per row, and BufferLen and SeenLen count the
// unpulled rows the same way, so budget enforcement cannot tell the two
// apart. A sink is seeded once, before it is attached.
//
// A cursor row cannot duplicate a row Offer delivers later: the cursor holds
// rows logged before the sink was attached, Offer only rows logged after,
// and a node's log holds each identity once (Algorithm 2's epoch
// partitioning for live rows, the log's identity set for recovered ones).
func (s *EndpointSink) Seed(env *Env, log *Log, epoch int) {
	v := log.seedView(epoch)
	env.Metrics.AddSeededRows(v.n)
	if v.n == 0 {
		return
	}
	s.Entry.cur = &seedCursor{seedView: v, sink: s, left: v.n, boundAt: -1, capsAt: -1,
		product: s.Entry.CQ.Model.AggKind == scoring.Product}
	s.Entry.acct.Add(2 * v.n)
}

// SeedEager buffers every pre-epoch row at once, walking the log in arrival
// order and restoring the heap once at the end: the reference Seed is
// checked against. That is exact: the buffer is ordered by (score, identity)
// and identities are deduplicated, so the order rows go in cannot change the
// order they come out.
func (s *EndpointSink) SeedEager(env *Env, log *Log, epoch int) {
	handed, added := 0, 0
	if e := s.Entry; e.seen.Len() == 0 && len(e.buffer) == 0 {
		e.seen = newIdentSet(log.Len())
		e.buffer = make(candidateHeap, 0, log.Len())
	}
	log.EachBefore(epoch, func(r *tuple.Row) {
		handed++
		if s.add(r) {
			added++
		}
	})
	s.Entry.acct.Add(2 * added)
	heap.Init(&s.Entry.buffer)
	env.Metrics.AddSeededRows(handed)
}

// add appends one row's candidate to the buffer without restoring the heap,
// reporting false for a duplicate.
func (s *EndpointSink) add(r *tuple.Row) bool {
	e := s.Entry
	if e.seen == nil {
		e.seen = newIdentSet(0)
	}
	if !e.seen.Add(r) {
		e.dups++
		return false
	}
	e.buffer = append(e.buffer, s.candidate(r))
	return true
}

// candidate projects a node-order row into CQ atom order and scores it.
func (s *EndpointSink) candidate(r *tuple.Row) candidate {
	parts := make([]*tuple.Tuple, len(s.AtomMap))
	for ni, ci := range s.AtomMap {
		parts[ci] = r.Part(ni)
	}
	row := tuple.NewRow(parts...)
	row.InheritIdentity(r)
	for i, p := range parts {
		s.scores[i] = p.Score()
	}
	return candidate{row: row, score: s.Entry.CQ.Model.Score(s.scores)}
}

// score scores a node-order row under the entry's model without projecting
// it.
func (s *EndpointSink) score(r *tuple.Row) float64 {
	for ni, ci := range s.AtomMap {
		s.scores[ci] = r.Part(ni).Score()
	}
	return s.Entry.CQ.Model.Score(s.scores)
}

// seedCursor walks a seedView in index order for one endpoint. Its bound is
// one rule for every scoring model: the model over the unpulled suffix's
// per-atom maxima (valid for any monotone model, and computed by the same
// floating-point expression as a row's score, so no rounding can put a row
// above it), and for the product family also the head row's score widened
// by the rounding error of two n-factor products, whichever is tighter. The
// widening is what lets the bound trust the index order: rows are ordered by
// their part-score product in node order, a CQ scores them in its own atom
// order with its weights, and the two roundings can disagree by a few ulps.
// For the sum family the maxima are the head's exact suffix maxima — the
// rest of its index block scanned, then the next block's stored maxima —
// since they are its only bound; the product family takes the head block's
// stored maxima and leans on the widened head score.
type seedCursor struct {
	seedView
	sink *EndpointSink
	// next is the index position of the first unpulled row (rows logged at
	// or after the epoch are skipped on the way); left counts the unpulled
	// pre-epoch rows.
	next, left int
	// bound memoises the bound at index position boundAt, capsBound the
	// model over the suffix maxima of index block capsAt.
	bound, capsBound float64
	boundAt, capsAt  int
	product          bool
}

// head advances past rows logged at or after the view's epoch and returns
// the index position of the first unpulled row; left must be positive.
func (c *seedCursor) head() int {
	for !c.before(c.ix.order[c.next]) {
		c.next++
	}
	return c.next
}

// boundFrom returns the bound on the rows at index positions j and later,
// given the score of the row at j; exact asks for the sum family's exact
// suffix maxima, which cost a scan of the rest of j's block.
func (c *seedCursor) boundFrom(j int, headScore float64, exact bool) float64 {
	if c.product {
		return min(c.blockBound(j/seedBlock), widenProduct(headScore, len(c.sink.AtomMap)))
	}
	if !exact || j%seedBlock == 0 {
		return c.blockBound(j / seedBlock)
	}
	// The scratch score vector holds the maxima, in CQ atom order.
	maxima, b := c.sink.scores, j/seedBlock
	next := (b + 1) * c.ix.arity
	for ni, ci := range c.sink.AtomMap {
		maxima[ci] = math.Inf(-1)
		if next < len(c.ix.caps) {
			maxima[ci] = c.ix.caps[next+ni]
		}
	}
	for _, pos := range c.ix.order[j:min((b+1)*seedBlock, len(c.ix.order))] {
		if !c.before(pos) {
			continue
		}
		r := c.rows.at(int(pos))
		for ni, ci := range c.sink.AtomMap {
			maxima[ci] = max(maxima[ci], r.Part(ni).Score())
		}
	}
	return c.sink.Entry.CQ.Model.Score(maxima)
}

// blockBound returns the model over the stored suffix maxima of index block
// b, memoised.
func (c *seedCursor) blockBound(b int) float64 {
	if b != c.capsAt {
		maxima := c.sink.scores // scratch, CQ atom order
		for ni, ci := range c.sink.AtomMap {
			maxima[ci] = c.ix.caps[b*c.ix.arity+ni]
		}
		c.capsAt, c.capsBound = b, c.sink.Entry.CQ.Model.Score(maxima)
	}
	return c.capsBound
}

// widenProduct bounds, from the score h of the row heading a product-ordered
// suffix of m-atom rows, the score of every row in it. With u = 2⁻⁵³, a row's
// part-score product in node order (m-1 roundings) is within (m-1)u of its
// exact value and a CQ's score of it (2m roundings, weights and the static
// factor included) within 2m·u, to first order; so a later row, whose
// computed product is no larger, scores at most h·(1 + 2(3m-1)u).
// (4m+4)·2⁻⁵² covers that with room for the widening's own rounding. Near
// the subnormal range rounding errors are absolute instead, and an absolute
// term covers them (only there: subnormal operands are slow).
func widenProduct(h float64, m int) float64 {
	k := float64(4*m + 4)
	if h >= 0x1p-1000 {
		return h * (1 + k*0x1p-52)
	}
	return h*(1+k*0x1p-52) + k*0x1p-1074
}

// headBound returns the cursor's bound on every unpulled row's score, or
// -Inf when none is left.
func (c *seedCursor) headBound() float64 {
	if c.left == 0 {
		return math.Inf(-1)
	}
	j := c.head()
	if c.boundAt != j {
		c.bound, c.boundAt = c.boundFrom(j, c.sink.score(c.rows.at(int(c.ix.order[j]))), true), j
	}
	return c.bound
}

// pull materialises the head row into the entry's buffer.
func (c *seedCursor) pull(env *Env) {
	r := c.rows.at(int(c.ix.order[c.head()]))
	c.next++
	c.left--
	env.Metrics.AddSeedPulled(1)
	e := c.sink.Entry
	if c.left == 0 {
		e.cur = nil // let the snapshot go
	}
	if e.seen != nil && !e.seen.Add(r) {
		e.dups++
		e.acct.Add(-2) // charged as a candidate and a seen entry; it is neither
		return
	}
	e.buffer = append(e.buffer, c.sink.candidate(r))
	heap.Fix(&e.buffer, len(e.buffer)-1)
}

// countAbove counts the unpulled rows scoring strictly above t, up to limit,
// scoring them in index order without materialising them and stopping where
// the bound on the rest falls to t.
func (c *seedCursor) countAbove(t float64, limit int) int {
	n := 0
	for j, visited := c.next, 0; visited < c.left && n < limit; j++ {
		pos := c.ix.order[j]
		if !c.before(pos) {
			continue
		}
		visited++
		score := c.sink.score(c.rows.at(int(pos)))
		if !(c.boundFrom(j, score, false) > t) {
			break
		}
		if score > t {
			n++
		}
	}
	return n
}

// settle pulls seeded rows until the buffer's best candidate beats the bound
// on every row still behind the cursor, so the buffer's top is the entry's
// best candidate, its identity tie-break included, and the buffer is empty
// only when the entry has no candidate at all.
func (e *CQEntry) settle(env *Env) {
	for c := e.cur; c != nil && c.left > 0 && (len(e.buffer) == 0 || c.headBound() >= e.buffer[0].score); {
		c.pull(env)
	}
}

// candidate is a buffered potential answer.
type candidate struct {
	row   *tuple.Row
	score float64
}

// candidateHeap is a max-heap by score (identity ascending on ties, for
// deterministic output; a row builds its identity string only when a tie
// asks for it).
type candidateHeap []candidate

func (h candidateHeap) Len() int { return len(h) }
func (h candidateHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].row.Identity() < h[j].row.Identity()
}
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// pop removes and returns the best candidate — heap.Pop's sift, without
// boxing the candidate into an interface.
func (h *candidateHeap) pop() candidate {
	n := len(*h) - 1
	h.Swap(0, n)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.Less(j2, j) {
			j = j2
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
	c := (*h)[n]
	*h = (*h)[:n]
	return c
}

// StepKind classifies what a rank-merge did in one scheduling step.
type StepKind int

const (
	// StepEmitted: one answer was emitted.
	StepEmitted StepKind = iota
	// StepRead: the operator wants one tuple read from Step.Source.
	StepRead
	// StepActivated: a pending CQ was activated (and may now need inputs).
	StepActivated
	// StepDone: the user query is finished.
	StepDone
)

// Step reports one scheduling decision.
type Step struct {
	Kind   StepKind
	Source *NodeExec
	// PrunedCQs lists CQ ids deactivated by this step (§6.3 unlinking).
	PrunedCQs []string
}

// RankMerge merges the output streams of a user query's conjunctive queries
// into its top-k answers, maintaining per-CQ thresholds per the Threshold
// Algorithm / No-Random-Access Algorithm of [7] (§4.1, Figure 6).
type RankMerge struct {
	UQ      *cq.UQ
	K       int
	Entries []*CQEntry

	emitted   []Result
	activated int
	done      bool
}

// NewRankMerge builds the operator; entries must be in nonincreasing U order.
func NewRankMerge(uq *cq.UQ, entries []*CQEntry) *RankMerge {
	return &RankMerge{UQ: uq, K: uq.K, Entries: entries, emitted: make([]Result, 0, min(uq.K, 64))}
}

// Results returns the emitted answers (in emission = rank order).
func (rm *RankMerge) Results() []Result { return rm.emitted }

// ExecutedCQs returns how many conjunctive queries were activated — the
// quantity Table 4 reports.
func (rm *RankMerge) ExecutedCQs() int { return rm.activated }

// Entry returns the entry for a CQ id, or nil.
func (rm *RankMerge) Entry(cqID string) *CQEntry {
	for _, e := range rm.Entries {
		if e.CQ.ID == cqID {
			return e
		}
	}
	return nil
}

// Advance performs one scheduling step:
//
//  1. if k answers are out (or nothing can produce more), finish;
//  2. if the best buffered candidate beats the gate — the max over active
//     thresholds and pending upper bounds — emit it and prune entries whose
//     threshold fell below the kth remaining candidate;
//  3. else if the gate is a pending CQ's upper bound, activate that CQ;
//  4. else request a read from the gate entry's preferred stream.
func (rm *RankMerge) Advance(env *Env) Step {
	for {
		if rm.done {
			return Step{Kind: StepDone}
		}
		if len(rm.emitted) >= rm.K {
			rm.finish()
			return Step{Kind: StepDone}
		}
		// Settle every cursor, and mark active entries with nothing left as
		// complete.
		for _, e := range rm.Entries {
			if e.cur != nil {
				e.settle(env)
			}
			if e.State == Active && math.IsInf(e.Threshold(), -1) && len(e.buffer) == 0 {
				e.State = Complete
			}
		}
		// Best buffered candidate across entries.
		var bestEntry *CQEntry
		bestScore := math.Inf(-1)
		for _, e := range rm.Entries {
			if len(e.buffer) == 0 {
				continue
			}
			top := e.buffer[0]
			if top.score > bestScore || (top.score == bestScore && bestEntry != nil && top.row.Identity() < bestEntry.buffer[0].row.Identity()) {
				bestScore, bestEntry = top.score, e
			}
		}
		// The emission gate.
		gate := math.Inf(-1)
		var gateEntry *CQEntry
		gatePending := false
		for _, e := range rm.Entries {
			switch e.State {
			case Active:
				if t := e.Threshold(); t > gate {
					gate, gateEntry, gatePending = t, e, false
				}
			case Pending:
				if e.U > gate {
					gate, gateEntry, gatePending = e.U, e, true
				}
			}
		}
		if bestEntry != nil && bestScore >= gate {
			rm.emit(env, bestEntry)
			return Step{Kind: StepEmitted, PrunedCQs: rm.prune()}
		}
		if gateEntry == nil {
			// No candidates and nothing active or pending: finished early
			// (fewer than k results exist).
			if bestEntry != nil {
				rm.emit(env, bestEntry)
				return Step{Kind: StepEmitted}
			}
			rm.finish()
			return Step{Kind: StepDone}
		}
		if gatePending {
			gateEntry.State = Active
			rm.activated++
			return Step{Kind: StepActivated}
		}
		src := gateEntry.PreferredSource()
		if src == nil {
			// Threshold came from a group that exhausted concurrently;
			// loop to reclassify.
			continue
		}
		return Step{Kind: StepRead, Source: src}
	}
}

// emit moves the entry's best candidate to the emitted answers.
func (rm *RankMerge) emit(env *Env, e *CQEntry) {
	c := e.buffer.pop()
	e.acct.Add(-1)
	rm.emitted = append(rm.emitted, Result{UQID: rm.UQ.ID, CQID: e.CQ.ID, Score: c.score, Row: c.row, At: env.Clock.Now()})
	env.Metrics.AddResult()
}

// prune deactivates active entries whose threshold can no longer reach the
// remaining top-k slots: if (k-emitted) candidates are already buffered with
// scores above an entry's threshold, its future results cannot matter (§6.3).
// It counts those candidates rather than ranking them, so an emission costs
// O(need × entries) whatever the buffers hold, and seeded rows still behind a
// cursor are scored in place, not pulled.
func (rm *RankMerge) prune() []string {
	need := rm.K - len(rm.emitted)
	if need <= 0 {
		return nil
	}
	buffered := 0
	for _, e := range rm.Entries {
		buffered += e.BufferLen()
	}
	if buffered < need {
		return nil
	}
	var prunedIDs []string
	for _, e := range rm.Entries {
		if e.State != Active {
			continue
		}
		if rm.countAbove(e.Threshold(), need) >= need {
			e.State = Pruned
			prunedIDs = append(prunedIDs, e.CQ.ID)
		}
	}
	return prunedIDs
}

func (rm *RankMerge) finish() {
	rm.done = true
	for _, e := range rm.Entries {
		if e.State == Active || e.State == Pending {
			e.State = Complete
		}
	}
}

// countAbove counts candidates, across every entry, scoring strictly above t,
// stopping once it reaches limit: buffered ones and seeded ones still behind
// a cursor alike.
func (rm *RankMerge) countAbove(t float64, limit int) int {
	n := 0
	for _, e := range rm.Entries {
		if n >= limit {
			break
		}
		n += e.buffer.countAbove(0, t, limit-n)
		if e.cur != nil && n < limit {
			n += e.cur.countAbove(t, limit-n)
		}
	}
	return n
}

// countAbove counts the candidates scoring strictly above t in the subtree
// rooted at i, up to limit. A max-heap's subtree holds nothing above t once
// its root does not, so the walk visits at most about twice what it counts.
func (h candidateHeap) countAbove(i int, t float64, limit int) int {
	if limit <= 0 || i >= len(h) || !(h[i].score > t) {
		return 0
	}
	n := 1
	n += h.countAbove(2*i+1, t, limit-n)
	n += h.countAbove(2*i+2, t, limit-n)
	return n
}
