// Package cq represents conjunctive queries (the paper's candidate networks,
// §2.1) and their subexpressions. Its central facility is *canonical
// subexpression identity*: two subexpressions drawn from different
// conjunctive queries — possibly posed by different users at different times —
// compare equal exactly when they denote the same select-project-join
// expression up to variable renaming. Canonical keys drive common-
// subexpression detection in the optimizer (§5.1), node matching during
// grafting (§6.2), and cache lookup in the query state manager.
package cq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/scoring"
	"repro/internal/tuple"
)

// Term is one argument position of an atom: either a variable (join/projection
// position) or a constant (a selection, e.g. T(gid, 'plasma membrane', score)).
type Term struct {
	// Var is the variable id (scoped to the enclosing query/expression), or
	// -1 when the term is the constant Const.
	Var int
	// Const is the selection constant; meaningful only when Var == -1.
	Const tuple.Value
}

// V returns a variable term.
func V(id int) Term { return Term{Var: id} }

// C returns a constant term.
func C(v tuple.Value) Term { return Term{Var: -1, Const: v} }

// IsConst reports whether the term is a selection constant.
func (t Term) IsConst() bool { return t.Var < 0 }

// Atom is one relational atom R(t₁, …, tₙ) of a conjunctive query. Args
// align positionally with the relation's schema columns.
type Atom struct {
	// Rel is the relation name.
	Rel string
	// DB names the database instance that owns the relation; pushdown
	// candidates must keep all their atoms within one DB (§5.1).
	DB string
	// Args has one term per relation column.
	Args []Term
}

// sig returns the atom's isomorphism-invariant signature: relation, database
// and the pattern of constants. Variable identities are deliberately absent.
func (a *Atom) sig() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('@')
	b.WriteString(a.DB)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsConst() {
			b.WriteByte('=')
			b.WriteString(t.Const.Key())
		} else {
			b.WriteByte('_')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// CQ is a conjunctive query: the relational form of one candidate network,
// paired with its monotone scoring model (§2.1). Atom order is significant —
// the scoring model's weights align with it.
type CQ struct {
	// ID identifies the query, e.g. "UQ1.CQ2".
	ID string
	// UQID names the user query this CQ helps answer.
	UQID string
	// Atoms is the query body. It is read-only once the query is built: the
	// slice and every atom in it may be shared with other queries (Clone,
	// Instance) and with the canonical forms memoized from it. Nothing writes
	// q.Atoms[i] or an atom's Args[i] after construction; only a constructor
	// that still owns the query alone (fleet's wire decoder) appends.
	Atoms []*Atom
	// Model scores result rows; Model.Arity() == len(Atoms).
	Model *scoring.Model
	// HeadVars lists the projected variables (display only; the engine
	// returns whole rows so any head can be projected afterwards).
	HeadVars []int

	// memo holds the canonical forms derived from Atoms (see expr.go). It is
	// created on first use and shared by the queries Instance mints.
	memo atomic.Pointer[body]
}

// body is the canonical-form memo of one Atoms slice: SubExpr results per
// index sequence, FullExpr and BodyKey. Every query sharing the slice through
// Instance shares the body, so a canonical form one arrival of a candidate
// network computed is found by the next. mu guards it: admission-side group
// optimization canonicalizes one query's subexpressions from several
// goroutines, and a front desk instantiates queries over a body a shard is
// admitting.
type body struct {
	mu      sync.Mutex
	sub     map[string]subEntry
	subKey  []byte // scratch for the sub lookup key
	full    *Expr
	bodyKey string
	// connected memoizes Validate's connectivity verdict over Atoms: 0 not
	// yet computed, 1 connected, 2 not.
	connected atomic.Int32
}

// sharedBody returns the query's memo, creating it on first use.
func (q *CQ) sharedBody() *body {
	if b := q.memo.Load(); b != nil {
		return b
	}
	q.memo.CompareAndSwap(nil, &body{})
	return q.memo.Load()
}

// Clone returns a copy sharing the atoms, model and head vars but none of
// the memo state — the way to duplicate a query (a value copy would copy the
// memo pointer's no-copy guard) and to time canonicalization from cold.
func (q *CQ) Clone() *CQ {
	return &CQ{ID: q.ID, UQID: q.UQID, Atoms: q.Atoms, Model: q.Model, HeadVars: q.HeadVars}
}

// Instance returns a new query over q's body — the Atoms slice, the head
// vars and the canonical-form memo are shared, not copied — under its own
// id and scoring model. It is how one candidate network serves many
// arrivals: the body is a function of the keywords and the schema, the model
// of who asks.
func (q *CQ) Instance(id, uqID string, model *scoring.Model) *CQ {
	n := &CQ{ID: id, UQID: uqID, Atoms: q.Atoms, Model: model, HeadVars: q.HeadVars}
	n.memo.Store(q.sharedBody())
	return n
}

// Validate checks internal consistency (arity of model, var usage). The
// connectivity verdict is memoized on the shared body, so validating a later
// arrival of a known body costs O(1).
func (q *CQ) Validate() error {
	if q.Model == nil {
		return fmt.Errorf("cq %s: nil scoring model", q.ID)
	}
	if q.Model.Arity() != len(q.Atoms) {
		return fmt.Errorf("cq %s: model arity %d != %d atoms", q.ID, q.Model.Arity(), len(q.Atoms))
	}
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq %s: empty body", q.ID)
	}
	if !q.bodyConnected() {
		return fmt.Errorf("cq %s: body is not connected", q.ID)
	}
	return nil
}

// bodyConnected reports whether all atoms form one connected join graph,
// computed once per body: every arrival of a candidate network shares it.
func (q *CQ) bodyConnected() bool {
	b := q.sharedBody()
	switch b.connected.Load() {
	case 1:
		return true
	case 2:
		return false
	}
	ok := q.Connected(allIdx(len(q.Atoms)))
	verdict := int32(2)
	if ok {
		verdict = 1
	}
	b.connected.Store(verdict)
	return ok
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// SharesVar reports whether atoms i and j of the query share a variable.
func (q *CQ) SharesVar(i, j int) bool {
	for _, ti := range q.Atoms[i].Args {
		if ti.IsConst() {
			continue
		}
		for _, tj := range q.Atoms[j].Args {
			if !tj.IsConst() && ti.Var == tj.Var {
				return true
			}
		}
	}
	return false
}

// Connected reports whether the given atom indexes induce a connected join
// graph (atoms adjacent when they share a variable).
func (q *CQ) Connected(idxs []int) bool {
	if len(idxs) == 0 {
		return false
	}
	seen := map[int]bool{idxs[0]: true}
	frontier := []int{idxs[0]}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, j := range idxs {
			if !seen[j] && q.SharesVar(cur, j) {
				seen[j] = true
				frontier = append(frontier, j)
			}
		}
	}
	return len(seen) == len(idxs)
}

// JoinPred is one equi-join predicate between two atom argument positions.
type JoinPred struct {
	AtomA, ColA int
	AtomB, ColB int
}

// JoinPreds returns every equi-join predicate induced by shared variables
// among the given atom indexes (indices are positions in q.Atoms). Each
// unordered pair of argument positions appears once.
func (q *CQ) JoinPreds(idxs []int) []JoinPred {
	type pos struct{ atom, col int }
	byVar := map[int][]pos{}
	for _, ai := range idxs {
		for ci, t := range q.Atoms[ai].Args {
			if !t.IsConst() {
				byVar[t.Var] = append(byVar[t.Var], pos{ai, ci})
			}
		}
	}
	vars := make([]int, 0, len(byVar))
	for v := range byVar {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	var preds []JoinPred
	for _, v := range vars {
		ps := byVar[v]
		// Chain the occurrences: p0=p1, p1=p2, ... (transitively complete).
		for i := 1; i < len(ps); i++ {
			preds = append(preds, JoinPred{
				AtomA: ps[i-1].atom, ColA: ps[i-1].col,
				AtomB: ps[i].atom, ColB: ps[i].col,
			})
		}
	}
	return preds
}

// ConnectedSubsets enumerates every connected subset of the query's atoms
// with size in [1, maxSize], as sorted index slices. The enumeration is
// exponential in principle but the paper's candidate networks have ≤ 8 atoms.
func (q *CQ) ConnectedSubsets(maxSize int) [][]int {
	n := len(q.Atoms)
	if n > 63 {
		panic("cq: ConnectedSubsets limited to 63 atoms")
	}
	adj := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && q.SharesVar(i, j) {
				adj[i] |= 1 << uint(j)
			}
		}
	}
	seen := map[uint64]bool{}
	var out [][]int
	var grow func(mask, frontier uint64)
	grow = func(mask, frontier uint64) {
		if seen[mask] {
			return
		}
		seen[mask] = true
		out = append(out, maskToIdx(mask))
		if popcount(mask) >= maxSize {
			return
		}
		// Expand by any neighbour of the current mask.
		var nb uint64
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				nb |= adj[i]
			}
		}
		nb &^= mask
		for i := 0; i < n; i++ {
			if nb&(1<<uint(i)) != 0 {
				grow(mask|1<<uint(i), 0)
			}
		}
	}
	for i := 0; i < n; i++ {
		grow(1<<uint(i), 0)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) < len(out[b])
		}
		for k := range out[a] {
			if out[a][k] != out[b][k] {
				return out[a][k] < out[b][k]
			}
		}
		return false
	})
	return out
}

func maskToIdx(mask uint64) []int {
	var idx []int
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			idx = append(idx, i)
		}
		mask >>= 1
	}
	return idx
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// String renders the query in datalog style.
func (q *CQ) String() string {
	var b strings.Builder
	b.WriteString(q.ID)
	b.WriteString(": q(...) :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for j, t := range a.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			if t.IsConst() {
				b.WriteByte('\'')
				b.WriteString(t.Const.Text())
				b.WriteByte('\'')
			} else {
				fmt.Fprintf(&b, "x%d", t.Var)
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// UQ is a user query: the union of conjunctive queries answering one keyword
// query (§2), ordered by nonincreasing score upper bound.
type UQ struct {
	// ID identifies the user query, e.g. "UQ1".
	ID string
	// Keywords is the original keyword query (display/diagnostics).
	Keywords []string
	// K is the number of answers requested.
	K int
	// CQs holds the member conjunctive queries in nonincreasing U(C) order.
	CQs []*CQ
	// DrawState is the user's coefficient generator state (dist.RNG.State)
	// before the expansion drew this query's scoring coefficients. With the
	// id, keywords and k it is all a shard needs to re-instantiate the query
	// from its own expansion cache.
	DrawState uint64
}
