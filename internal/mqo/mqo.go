// Package mqo is the multiple-query optimizer of §5.1: it factors a batch of
// conjunctive queries into an input assignment (I, I) — subexpressions
// evaluated at the remote databases, each shared by the queries in I[J] —
// by enumerating candidate subexpressions into an AND-OR memo, pruning them
// with the paper's four heuristics (§5.1.1), and running the BestPlan
// top-down search with memoization (Algorithm 1) under the cost model.
package mqo

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/andor"
	"repro/internal/costmodel"
	"repro/internal/cq"
)

// The §5.1.1 utility filter: a multi-atom candidate needs minShare consuming
// queries unless its estimated cardinality is at most lowCardThreshold
// ("filter subexpressions by estimated utility"); the same threshold admits
// a low-cardinality pushdown that has a relation without scores.
const (
	minShare         = 2
	lowCardThreshold = 200
)

// Config tunes candidate generation and search.
type Config struct {
	// K is the per-query result target used for depth estimation.
	K int
	// MaxCandidateAtoms bounds the size of pushdown candidates.
	MaxCandidateAtoms int
	// MaxCandidates caps the candidate set fed to BestPlan (the search is
	// exponential in this number — Figure 11).
	MaxCandidates int
	// SearchNodeBudget aborts pathological searches (safety valve; the
	// heuristics keep real workloads well under it).
	SearchNodeBudget int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.K == 0 {
		c.K = 50
	}
	if c.MaxCandidateAtoms == 0 {
		c.MaxCandidateAtoms = 4
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 16
	}
	if c.SearchNodeBudget == 0 {
		c.SearchNodeBudget = 30000
	}
	return c
}

// Result is the optimizer's output.
type Result struct {
	// Inputs is the chosen input assignment (I with its I[J] sets).
	Inputs []*costmodel.Input
	// Cost is the estimated cost of the assignment.
	Cost float64
	// CandidateCount is the number of pushdown candidates searched
	// (Figure 11's x-axis).
	CandidateCount int
	// SearchNodes counts BestPlan invocations (memoised and not).
	SearchNodes int
	// Memo is the AND-OR graph (reused by the factorizer).
	Memo *andor.Graph

	// RunnerUp and Depths certify the choice against catalog row counts.
	// Which leaves the search prices does not depend on how many rows of a
	// stream are already buffered (Catalog.StreamedSoFar): that count only
	// enters a leaf's cost as max(0, depth − buffered)·StreamCost. So with
	// them a caller can bound every other leaf's cost under moved row counts
	// without searching again.
	//
	// RunnerUp is the least cost of any other distinct assignment the search
	// priced, +Inf if there is none.
	RunnerUp float64
	// Depths lists, in key order, every expression key some leaf priced as
	// a stream.
	Depths []KeyDepth
}

// KeyDepth is the range of stream depths the search's leaves priced for one
// expression key.
type KeyDepth struct {
	Key string
	// Max is the largest leaf depth.
	Max float64
	// Min is the smallest leaf depth if every leaf streams the key, and 0
	// otherwise: a leaf that does not stream the key does not pay for it.
	Min float64
}

// candidate is one searchable subexpression with its (restrictable) use set.
type candidate struct {
	// idx is the candidate's ordinal in the searched set; restricted copies
	// share it (memo keys intern on it instead of the expression string).
	idx  int
	expr *cq.Expr
	// uses is the full occurrence map; only original candidates carry it.
	// Restricted copies (Algorithm 1 line 14) carry the surviving consumer
	// set purely as bits — the occurrence pointers are recovered from the
	// original candidate at completion time.
	uses map[string]*cq.ExprOccurrence
	gain float64
	// bits is the consuming-query set as a bitset over the searcher's
	// canonical CQ ordering: the restriction step and the memo key both
	// reduce to word operations instead of per-call map iteration.
	bits []uint64
}

// CanonicalOrder returns the batch sorted by query body (cq.CQ.BodyKey), the
// id breaking ties between identical bodies only. Optimize processes its
// group in this order, which makes the assignment a function of the *set* of
// query structures: neither the caller's order nor how the ids happen to
// rank can change which plan is found. That is the property a plan cache
// keyed on the structures needs (qsm), since every arrival of a recurring
// user query carries fresh ids in a freshly ranked order.
func CanonicalOrder(qs []*cq.CQ) []*cq.CQ { return AppendCanonical(nil, qs) }

// AppendCanonical appends the batch to dst in canonical order (see
// CanonicalOrder) and returns the extended slice; it allocates only to grow
// dst.
func AppendCanonical(dst, qs []*cq.CQ) []*cq.CQ {
	n := len(dst)
	dst = append(dst, qs...)
	slices.SortStableFunc(dst[n:], func(a, b *cq.CQ) int {
		if c := strings.Compare(a.BodyKey(), b.BodyKey()); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return dst
}

// Optimize runs multi-query optimization over the batch.
func Optimize(qs []*cq.CQ, cm *costmodel.Model, cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	if len(qs) == 0 {
		return nil, fmt.Errorf("mqo: empty query batch")
	}
	qs = CanonicalOrder(qs)
	memo := andor.New()
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		memo.AddQuery(q, cfg.MaxCandidateAtoms)
	}
	cands := collectCandidates(qs, memo, cm, cfg)
	// A query's bit position is its place in the canonical order, which
	// doubles as the completion-time use order (the paper's deterministic
	// tie-break).
	cqOrd := make(map[string]int, len(qs))
	for i, q := range qs {
		cqOrd[q.ID] = i
	}
	words := (len(qs) + 63) / 64
	origByIdx := make([]*candidate, len(cands))
	for i, c := range cands {
		c.idx = i
		origByIdx[i] = c
		c.bits = make([]uint64, words)
		for id := range c.uses {
			ord := cqOrd[id]
			c.bits[ord/64] |= 1 << uint(ord%64)
		}
	}
	// Precompute the pairwise relation-overlap matrix (Algorithm 1 line 14's
	// test), invariant under restriction.
	overlap := make([][]bool, len(cands))
	for i, a := range cands {
		overlap[i] = make([]bool, len(cands))
		for j, b := range cands {
			if i != j {
				overlap[i][j] = a.expr.SharesRelation(b.expr)
			}
		}
	}
	s := &searcher{
		qs:        qs,
		cm:        cm,
		cfg:       cfg,
		words:     words,
		origByIdx: origByIdx,
		overlap:   overlap,
		memo:      map[string]searchResult{},
		budget:    cfg.SearchNodeBudget,
		covered:   make([][]bool, len(qs)),
		singles:   make([][]singleUse, len(qs)),
		runnerUp:  math.Inf(1),
		depths:    map[string]depthRange{},

		inputsScratch: map[string]*costmodel.Input{},
		costScratch:   costmodel.NewScratch(),
	}
	for i, q := range qs {
		s.covered[i] = make([]bool, len(q.Atoms))
		s.singles[i] = make([]singleUse, len(q.Atoms))
	}
	// chosen's backing array is preallocated to the deepest possible DFS path
	// so the append at every recursion step writes in place instead of
	// reallocating (siblings reuse the slot after the prior subtree returns;
	// nothing a memo entry retains aliases chosen).
	best := s.bestPlan(cands, make([]*candidate, 0, len(cands)))
	if best.inputs == nil {
		return nil, fmt.Errorf("mqo: search failed to produce a valid plan")
	}
	depths := make([]KeyDepth, 0, len(s.depths))
	for k, r := range s.depths {
		d := KeyDepth{Key: k, Max: r.max}
		if r.leaves == s.leaves {
			d.Min = r.min
		}
		//qsys:allow maporder: sorted by key just below
		depths = append(depths, d)
	}
	slices.SortFunc(depths, func(a, b KeyDepth) int { return strings.Compare(a.Key, b.Key) })
	return &Result{
		Inputs:         best.inputs,
		Cost:           best.cost,
		CandidateCount: len(cands),
		SearchNodes:    s.nodes,
		Memo:           memo,
		RunnerUp:       s.runnerUp,
		Depths:         depths,
	}, nil
}

// collectCandidates applies the §5.1.1 pruning heuristics.
func collectCandidates(qs []*cq.CQ, memo *andor.Graph, cm *costmodel.Model, cfg Config) []*candidate {
	// Query relation sets for the overlap rule, and full-query cardinalities
	// for the small-query rule.
	relSets := make(map[string]map[string]bool, len(qs))
	fullCard := make(map[string]float64, len(qs))
	for _, q := range qs {
		set := map[string]bool{}
		for _, a := range q.Atoms {
			set[a.Rel] = true
		}
		relSets[q.ID] = set
		fullCard[q.ID] = cm.Cat.EstimateCard(cm.FullExpr(q))
	}
	var cands []*candidate
	for _, key := range memo.Keys() {
		node := memo.Node(key)
		e := node.Expr
		multi := !e.SingleAtom()
		if multi {
			// Pushdown requires a single owning database (§5.1).
			if e.SingleDB() == "" {
				continue
			}
			// Streamability (§5.1.1 "only stream relations that have scoring
			// attributes"): every member of a pushed-down stream must carry a
			// scoring attribute — a score-less relation is served by random
			// access instead — unless the whole result is small.
			if !exprAllScored(e, cm) && cm.Cat.EstimateCard(e) > lowCardThreshold {
				continue
			}
			// Expensive source joins are pruned (§5.1.1).
			if cm.Cat.ExpensiveJoin(e) {
				continue
			}
			// Utility: shared enough, or low-cardinality (§5.1.1).
			if len(node.Occurrences) < minShare && cm.Cat.EstimateCard(e) > lowCardThreshold {
				continue
			}
			// Small-query rule: skip single-use subexpressions of queries
			// that produce few results anyway (§5.1.1 "consider queries as
			// shared subexpressions").
			if len(node.Occurrences) == 1 {
				small := false
				for cqID := range node.Occurrences {
					if fullCard[cqID] <= float64(cfg.K) {
						small = true
					}
				}
				if small {
					continue
				}
			}
			// Non-overlap (§5.1.1): a query either uses a candidate as a
			// proper subexpression or not at all — never partially. Candidate
			// occurrences are exact subexpression matches by construction
			// (the AND-OR memo records only exact occurrences), and Algorithm
			// 1's restriction step (bestPlan) prevents any query from being
			// covered by two relation-overlapping inputs. Pruning candidates
			// merely for *sharing a relation* with some query would reject
			// the paper's own Example 5 (G2G⋈GI⋈T is kept for CQ2 although
			// its relations also appear in CQ1), so no further check is
			// needed here.
		}
		uses := make(map[string]*cq.ExprOccurrence, len(node.Occurrences))
		for id, occ := range node.Occurrences {
			uses[id] = occ
		}
		baseCard := 0.0
		for _, a := range e.Atoms {
			if st, err := cm.Cat.Relation(a.Rel); err == nil {
				baseCard += st.Card
			}
		}
		gain := float64(len(uses)) * (baseCard - cm.Cat.EstimateCard(e))
		cands = append(cands, &candidate{expr: e, uses: uses, gain: gain})
	}
	// Multi-atom candidates are the search's combinatorial dimension; keep
	// the most promising ones. Single-atom candidates (base relations,
	// §5.1.1 "always designate base relations ... as useful") are kept only
	// when they give the search a way to partially reject a multi-atom
	// candidate, i.e. when they overlap one.
	var multi, single []*candidate
	for _, c := range cands {
		if c.expr.SingleAtom() {
			single = append(single, c)
		} else {
			multi = append(multi, c)
		}
	}
	sort.Slice(multi, func(i, j int) bool {
		if multi[i].gain != multi[j].gain {
			return multi[i].gain > multi[j].gain
		}
		return multi[i].expr.Key() < multi[j].expr.Key()
	})
	if len(multi) > cfg.MaxCandidates {
		multi = multi[:cfg.MaxCandidates]
	}
	coveredRels := map[string]bool{}
	for _, c := range multi {
		for _, a := range c.expr.Atoms {
			coveredRels[a.Rel] = true
		}
	}
	out := multi
	for _, c := range single {
		if coveredRels[c.expr.Atoms[0].Rel] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].gain != out[j].gain {
			return out[i].gain > out[j].gain
		}
		return out[i].expr.Key() < out[j].expr.Key()
	})
	return out
}

func exprAllScored(e *cq.Expr, cm *costmodel.Model) bool {
	for _, a := range e.Atoms {
		st, err := cm.Cat.Relation(a.Rel)
		if err != nil || !st.HasScore {
			return false
		}
	}
	return true
}

// --- BestPlan (Algorithm 1) --------------------------------------------------

type searchResult struct {
	inputs []*costmodel.Input
	cost   float64
}

type searcher struct {
	qs  []*cq.CQ // canonical order; bit position = index here
	cm  *costmodel.Model
	cfg Config
	// words is the bitset width in 64-bit words.
	words int
	// origByIdx recovers each candidate's full occurrence map from its
	// ordinal (restricted copies carry only bits).
	origByIdx []*candidate
	// overlap[i][j] caches expr i SharesRelation expr j.
	overlap [][]bool
	memo    map[string]searchResult
	nodes   int
	budget  int

	// keyBuf and candScratch are reusable state-key scratch: keys are built
	// in place and looked up via the compiler's map[string(buf)] optimization,
	// so a memo hit allocates nothing.
	keyBuf      []byte
	candScratch []*candidate

	// restScratch[d] is the depth-d restriction buffer, and candPool a
	// mark/release pool of restricted candidate copies: both are dead the
	// moment the recursion they fed returns (nothing a memo entry retains
	// points at them), so the search reuses them instead of allocating at
	// every (state, candidate) step.
	restScratch [][]*candidate
	candPool    []*candidate
	candPoolPos int

	// covered is the completion scratch (covered[ord][atom]), reset per
	// complete call; singles caches each query's single-atom completion
	// inputs — complete runs at every search leaf and re-derives the same
	// coverage rows.
	covered [][]bool
	singles [][]singleUse

	// inputsScratch and costScratch are completion-time working maps:
	// complete builds its input set and prices it at every search leaf, and
	// neither structure outlives the call (only the final list and the Input
	// values escape into the memo), so both are reused across leaves.
	inputsScratch map[string]*costmodel.Input
	costScratch   *costmodel.Scratch

	// The certificate (Result.RunnerUp, Result.Depths), kept as leaves are
	// priced: the cheapest leaf so far and its cost, the least cost of any
	// other distinct assignment, and per stream-priced key its depth range
	// and the number of leaves that stream it.
	leaves   int
	least    []*costmodel.Input
	leastAt  float64
	runnerUp float64
	depths   map[string]depthRange
}

type depthRange struct {
	min, max float64
	leaves   int
}

// singleUse is one cached single-atom completion input of a query.
type singleUse struct {
	expr *cq.Expr
	occ  *cq.ExprOccurrence
}

// bestPlan implements Algorithm 1: it either completes the partial input
// assignment `chosen` into a full plan (when no candidates remain or the
// budget is spent), or tries each remaining candidate as the next input,
// restricting the others per line 14 and recursing.
func (s *searcher) bestPlan(remaining []*candidate, chosen []*candidate) searchResult {
	s.nodes++
	key := s.stateKey(chosen)
	if r, ok := s.memo[string(key)]; ok {
		return r
	}
	if len(remaining) == 0 || s.nodes > s.budget {
		r := s.complete(chosen)
		s.memo[string(key)] = r
		return r
	}
	stored := string(key) // materialise once; key's buffer is reused below
	depth := len(chosen)
	for depth >= len(s.restScratch) {
		s.restScratch = append(s.restScratch, nil)
	}
	best := searchResult{cost: -1}
	for i, j := range remaining {
		// Line 12-17: restrict the other candidates against J.
		rest := s.restScratch[depth][:0]
		mark := s.candPoolPos
		for k2, j2 := range remaining {
			if k2 == i {
				continue
			}
			if !s.overlap[j.idx][j2.idx] {
				rest = append(rest, j2)
				continue
			}
			if rc := s.restrict(j2, j); rc != nil {
				rest = append(rest, rc)
			}
		}
		r := s.bestPlan(rest, append(chosen, j))
		s.restScratch[depth] = rest
		s.candPoolPos = mark
		if r.inputs != nil && (best.cost < 0 || r.cost < best.cost) {
			best = r
		}
	}
	if best.inputs == nil {
		best = s.complete(chosen)
	}
	s.memo[stored] = best
	return best
}

// restrict returns j2 restricted against chosen candidate j (Algorithm 1
// line 14): a pooled copy of j2 whose consumer set drops j's consumers, or
// nil when no consumer survives. The copy comes from the mark/release pool —
// the caller rewinds candPoolPos once the recursion it fed returns.
func (s *searcher) restrict(j2, j *candidate) *candidate {
	var c *candidate
	if s.candPoolPos < len(s.candPool) {
		c = s.candPool[s.candPoolPos]
	} else {
		c = &candidate{bits: make([]uint64, s.words)}
		s.candPool = append(s.candPool, c)
	}
	bits := c.bits[:s.words]
	var any uint64
	for i := range bits {
		v := j2.bits[i] &^ j.bits[i]
		bits[i] = v
		any |= v
	}
	if any == 0 {
		return nil // c stays pooled for the next restriction
	}
	s.candPoolPos++
	c.idx, c.expr, c.uses, c.gain, c.bits = j2.idx, j2.expr, nil, j2.gain, bits
	return c
}

// stateKey interns the chosen set (Algorithm 1's memo on A) compactly: per
// candidate in ordinal order, its ordinal plus the consumer bitset. The
// returned slice aliases the searcher's scratch buffer — valid until the
// next call — which lets memo lookups run without allocating.
func (s *searcher) stateKey(chosen []*candidate) []byte {
	// Insertion sort of the candidates themselves by ordinal: chosen sets are
	// small (≤ MaxCandidates) and this avoids both the int-slice sort and the
	// quadratic ordinal→candidate rescan.
	scratch := append(s.candScratch[:0], chosen...)
	for i := 1; i < len(scratch); i++ {
		for j := i; j > 0 && scratch[j].idx < scratch[j-1].idx; j-- {
			scratch[j], scratch[j-1] = scratch[j-1], scratch[j]
		}
	}
	s.candScratch = scratch[:0]

	entrySize := 2 + 8*s.words
	if cap(s.keyBuf) < entrySize*len(chosen) {
		s.keyBuf = make([]byte, entrySize*len(chosen))
	}
	buf := s.keyBuf[:0]
	for _, c := range scratch {
		buf = append(buf, byte(c.idx>>8), byte(c.idx))
		for _, w := range c.bits {
			buf = append(buf,
				byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
				byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
		}
	}
	s.keyBuf = buf[:0]
	return buf
}

// eachUse calls fn for the candidate's surviving consumers in canonical CQ
// order, recovering occurrence pointers from the original candidate.
func (s *searcher) eachUse(c *candidate, fn func(ord int, occ *cq.ExprOccurrence)) {
	orig := s.origByIdx[c.idx]
	for w, word := range c.bits {
		for word != 0 {
			ord := w*64 + bits.TrailingZeros64(word)
			fn(ord, orig.uses[s.qs[ord].ID])
			word &= word - 1
		}
	}
}

// singleUseOf resolves (caching) query qi's single-atom input for atom ai.
// The occurrence is immutable, so sharing one pointer across every
// completion that needs it is safe.
func (s *searcher) singleUseOf(qi, ai int) singleUse {
	su := s.singles[qi][ai]
	if su.expr == nil {
		q := s.qs[qi]
		e, mapping := q.SubExpr([]int{ai})
		su = singleUse{expr: e, occ: &cq.ExprOccurrence{CQ: q, AtomOf: mapping}}
		s.singles[qi][ai] = su
	}
	return su
}

// complete turns a set of chosen candidates into a valid input assignment:
// every (query, relation) pair not yet covered is covered by that query's own
// single-atom expression (shared across queries via canonical keys), modes
// are assigned per §5.1.1, and every query is guaranteed a streaming input.
func (s *searcher) complete(chosen []*candidate) searchResult {
	inputs := s.inputsScratch // the map is per-leaf scratch; its values escape
	clear(inputs)
	covered := s.covered // covered[ord][atom]; complete runs at every leaf
	for _, row := range covered {
		for i := range row {
			row[i] = false
		}
	}
	addUse := func(e *cq.Expr, ord int, occ *cq.ExprOccurrence) bool {
		cov := covered[ord]
		for _, ai := range occ.AtomOf {
			if cov[ai] {
				return false // would double-cover an atom; skip this use
			}
		}
		in, ok := inputs[e.Key()]
		if !ok {
			in = &costmodel.Input{Expr: e, DB: e.SingleDB(), Uses: map[string]*cq.ExprOccurrence{}}
			inputs[e.Key()] = in
		}
		in.Uses[s.qs[ord].ID] = occ
		for _, ai := range occ.AtomOf {
			cov[ai] = true
		}
		return true
	}
	for _, c := range chosen {
		s.eachUse(c, func(ord int, occ *cq.ExprOccurrence) {
			addUse(c.expr, ord, occ)
		})
	}
	// Completion with single-atom inputs.
	for ord, q := range s.qs {
		for ai := range q.Atoms {
			if covered[ord][ai] {
				continue
			}
			su := s.singleUseOf(ord, ai)
			addUse(su.expr, ord, su.occ)
		}
	}
	// Assign modes, then guarantee each query at least one streaming input.
	list := make([]*costmodel.Input, 0, len(inputs))
	for _, in := range inputs {
		in.Mode = s.cm.ChooseMode(in.Expr)
		//qsys:allow maporder: the hand-rolled insertion sort below canonicalizes list by Expr.Key before any order-sensitive use
		list = append(list, in)
	}
	// Insertion sort by canonical key: lists are small (one entry per
	// distinct input expression) and this runs at every leaf, so the
	// reflection-based sort.Slice is measurable overhead here.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j].Expr.Key() < list[j-1].Expr.Key(); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	for _, q := range s.qs {
		hasStream := false
		var smallest *costmodel.Input
		var smallestCard float64
		for _, in := range list {
			if _, uses := in.Uses[q.ID]; !uses {
				continue
			}
			if in.Mode == costmodel.Stream {
				hasStream = true
				break
			}
			card := s.cm.Cat.EstimateCard(in.Expr)
			if smallest == nil || card < smallestCard {
				smallest, smallestCard = in, card
			}
		}
		if !hasStream && smallest != nil {
			smallest.Mode = costmodel.Stream
		}
	}
	cost := s.cm.AssignmentCostScratch(s.qs, list, s.cfg.K, s.costScratch)
	s.notePriced(list, cost)
	return searchResult{inputs: list, cost: cost}
}

// notePriced folds one priced leaf into the certificate. Equal assignments
// price equal, so two leaves are compared input by input only when their
// costs tie exactly.
func (s *searcher) notePriced(list []*costmodel.Input, cost float64) {
	s.leaves++
	for _, in := range list {
		if in.Mode != costmodel.Stream {
			continue
		}
		d := s.costScratch.Depth(in.Expr.Key())
		r, ok := s.depths[in.Expr.Key()]
		if !ok {
			r = depthRange{min: d, max: d}
		}
		r.min, r.max = math.Min(r.min, d), math.Max(r.max, d)
		r.leaves++
		s.depths[in.Expr.Key()] = r
	}
	switch {
	case s.least == nil || cost < s.leastAt:
		if s.least != nil {
			s.runnerUp = math.Min(s.runnerUp, s.leastAt)
		}
		s.least, s.leastAt = list, cost
	case cost > s.leastAt || !sameAssignment(list, s.least):
		s.runnerUp = math.Min(s.runnerUp, cost)
	}
}

// sameAssignment reports whether two completed leaves, each in canonical
// key order, assign the same inputs in the same modes to the same uses.
func sameAssignment(a, b []*costmodel.Input) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Expr.Key() != y.Expr.Key() || x.Mode != y.Mode || len(x.Uses) != len(y.Uses) {
			return false
		}
		for id, occ := range x.Uses {
			if o, ok := y.Uses[id]; !ok || !slices.Equal(occ.AtomOf, o.AtomOf) {
				return false
			}
		}
	}
	return true
}

// Validate checks Definition 1: every relation occurrence (atom) of every
// query is covered by exactly one input that uses the query.
func Validate(qs []*cq.CQ, inputs []*costmodel.Input) error {
	return ValidateBy(qs, len(inputs),
		func(i int) (*cq.Expr, costmodel.Mode) { return inputs[i].Expr, inputs[i].Mode },
		func(i, pos int) ([]int, bool) {
			occ, ok := inputs[i].Uses[qs[pos].ID]
			if !ok {
				return nil, false
			}
			return occ.AtomOf, true
		})
}

// ValidateBy is Validate over an assignment read through accessors, so a
// caller that keeps one in another shape checks it without rebuilding
// costmodel.Inputs: input(i) is the i-th of n inputs' expression and mode,
// and use(i, pos) the atom mapping of input i into qs[pos], if it uses that
// query.
func ValidateBy(qs []*cq.CQ, n int, input func(i int) (*cq.Expr, costmodel.Mode), use func(i, pos int) ([]int, bool)) error {
	var buf [16]int
	for pos, q := range qs {
		var count []int // per atom of q, the inputs covering it
		if len(q.Atoms) <= len(buf) {
			count = buf[:len(q.Atoms)]
			clear(count)
		} else {
			count = make([]int, len(q.Atoms))
		}
		streams := 0
		for i := 0; i < n; i++ {
			atomOf, ok := use(i, pos)
			if !ok {
				continue
			}
			expr, mode := input(i)
			if mode == costmodel.Stream {
				streams++
			}
			for ei, ai := range atomOf {
				if ai < 0 || ai >= len(q.Atoms) {
					return fmt.Errorf("mqo: input %s maps atom out of range for %s", expr.Key(), q.ID)
				}
				if expr.Atoms[ei].Rel != q.Atoms[ai].Rel {
					return fmt.Errorf("mqo: input %s atom %d relation mismatch for %s", expr.Key(), ei, q.ID)
				}
				count[ai]++
			}
		}
		for ai, c := range count {
			if c != 1 {
				return fmt.Errorf("mqo: query %s atom %d (%s) covered %d times", q.ID, ai, q.Atoms[ai].Rel, c)
			}
		}
		if streams == 0 {
			return fmt.Errorf("mqo: query %s has no streaming input", q.ID)
		}
	}
	return nil
}
