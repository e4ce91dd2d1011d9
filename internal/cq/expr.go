package cq

import (
	"fmt"
	"strings"
)

// Expr is a canonicalized select-project-join expression: a connected set of
// atoms with variables renamed into canonical form. Expressions with equal
// Key() denote the same computation regardless of which conjunctive query —
// or which user's session — they were extracted from. Every plan-graph node
// computes exactly one Expr.
type Expr struct {
	// Atoms is the body in canonical order with canonical variable ids
	// (0, 1, 2, … in order of first occurrence).
	Atoms []*Atom
	key   string
}

// Key returns the canonical identity string.
func (e *Expr) Key() string { return e.key }

// Arity returns the number of atoms.
func (e *Expr) Arity() int { return len(e.Atoms) }

// IsBase reports whether the expression is a single atom with no selection
// constants (a bare base relation).
func (e *Expr) IsBase() bool {
	if len(e.Atoms) != 1 {
		return false
	}
	for _, t := range e.Atoms[0].Args {
		if t.IsConst() {
			return false
		}
	}
	return true
}

// SingleAtom reports whether the expression has exactly one atom (a base
// relation, possibly under selection).
func (e *Expr) SingleAtom() bool { return len(e.Atoms) == 1 }

// SingleDB returns the owning database if every atom lives in one database
// instance (the pushdown requirement, §5.1), or "" otherwise.
func (e *Expr) SingleDB() string {
	db := e.Atoms[0].DB
	for _, a := range e.Atoms[1:] {
		if a.DB != db {
			return ""
		}
	}
	return db
}

// RelationSet returns the set of relation names in the expression.
func (e *Expr) RelationSet() map[string]bool {
	s := make(map[string]bool, len(e.Atoms))
	for _, a := range e.Atoms {
		s[a.Rel] = true
	}
	return s
}

// SharesRelation reports whether two expressions reference a common relation
// (the overlap test of Algorithm 1, line 14).
func (e *Expr) SharesRelation(o *Expr) bool {
	set := e.RelationSet()
	for _, a := range o.Atoms {
		if set[a.Rel] {
			return true
		}
	}
	return false
}

// JoinPreds returns the equi-join predicates induced by shared canonical
// variables among the expression's atoms.
func (e *Expr) JoinPreds() []JoinPred {
	q := CQ{Atoms: e.Atoms}
	idxs := make([]int, len(e.Atoms))
	for i := range idxs {
		idxs[i] = i
	}
	return q.JoinPreds(idxs)
}

// String renders the canonical form.
func (e *Expr) String() string { return e.key }

// SubExpr extracts the canonical expression induced by the given atom indexes
// of q (which must be connected). The second result maps each canonical atom
// position back to its index in q.Atoms, so consumers can translate rows and
// scores between the shared expression's order and the query's order.
//
// Results are memoized per body (shared by the queries Instance mints from
// one another): canonicalization is the optimizer's hottest call (AND-OR
// enumeration, plan completion, factorization and the cost model all extract
// the same subexpressions of the same queries), and the canonical form of a
// fixed index sequence never changes. The returned mapping is a fresh copy on
// every call; the Expr is shared and immutable.
func (q *CQ) SubExpr(idxs []int) (*Expr, []int) {
	if len(q.Atoms) > 255 {
		atoms := make([]*Atom, len(idxs))
		for i, ai := range idxs {
			atoms[i] = q.Atoms[ai]
		}
		return canonSub(q, atoms, idxs)
	}
	b := q.sharedBody()
	b.mu.Lock()
	defer b.mu.Unlock()
	key := b.subKey[:0]
	for _, ai := range idxs {
		key = append(key, byte(ai))
	}
	b.subKey = key
	if ent, ok := b.sub[string(key)]; ok {
		return ent.expr, append([]int(nil), ent.mapping...)
	}
	atoms := make([]*Atom, len(idxs))
	for i, ai := range idxs {
		atoms[i] = q.Atoms[ai]
	}
	expr, mapping := canonSub(q, atoms, idxs)
	if b.sub == nil {
		b.sub = make(map[string]subEntry)
	}
	b.sub[string(key)] = subEntry{expr: expr, mapping: mapping}
	return expr, append([]int(nil), mapping...)
}

// FullExpr returns the canonical expression of the whole query body. It is
// memoized on the query: the cost model asks for it at every leaf of the plan
// search.
func (q *CQ) FullExpr() *Expr {
	b := q.sharedBody()
	b.mu.Lock()
	e := b.full
	b.mu.Unlock()
	if e == nil {
		e, _ = q.SubExpr(allIdx(len(q.Atoms)))
		b.mu.Lock()
		b.full = e
		b.mu.Unlock()
	}
	return e
}

// BodyKey renders the query body in its own atom order with variables renamed
// in first-occurrence order. Unlike Expr.Key it is not isomorphism-invariant
// across atom orders: two queries have equal BodyKeys exactly when their atoms
// agree position by position up to variable renaming, which is what lets an
// input assignment computed for one be reused for the other with its atom
// indexes unchanged (the optimizer's canonical group order and the state
// manager's plan cache key both build on it).
func (q *CQ) BodyKey() string {
	b := q.sharedBody()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bodyKey == "" {
		b.bodyKey = renderOrdered(q.Atoms, allIdx(len(q.Atoms)))
	}
	return b.bodyKey
}

// subEntry is one memoized SubExpr result.
type subEntry struct {
	expr    *Expr
	mapping []int
}

// canonSub is the uncached SubExpr body.
func canonSub(q *CQ, atoms []*Atom, idxs []int) (*Expr, []int) {
	expr, perm := Canonicalize(atoms)
	mapping := make([]int, len(perm))
	for i, p := range perm {
		mapping[i] = idxs[p]
	}
	return expr, mapping
}

// Canonicalize produces the canonical Expr for the given atoms, plus the
// permutation perm with expr.Atoms[i] derived from atoms[perm[i]].
//
// The canonical form is the lexicographically least rendering over all
// breadth-first atom orderings seeded at each atom, with variables renamed in
// first-occurrence order. For the join shapes produced by candidate-network
// generation (trees and near-trees of ≤ 8 atoms) this is isomorphism-
// invariant; in adversarial symmetric cases two isomorphic expressions may
// render differently, which can only cause a *missed* sharing opportunity,
// never incorrect sharing (equal renderings are definitionally equal
// expressions).
func Canonicalize(atoms []*Atom) (*Expr, []int) {
	n := len(atoms)
	if n == 0 {
		panic("cq: Canonicalize with no atoms")
	}
	bestRender := ""
	var bestPerm []int
	for seed := 0; seed < n; seed++ {
		perm := bfsOrder(atoms, seed)
		render := renderOrdered(atoms, perm)
		if bestPerm == nil || render < bestRender {
			bestRender, bestPerm = render, perm
		}
	}
	// Build canonical atoms with renamed variables following bestPerm.
	varMap := map[int]int{}
	next := 0
	canon := make([]*Atom, n)
	for i, p := range bestPerm {
		src := atoms[p]
		args := make([]Term, len(src.Args))
		for j, t := range src.Args {
			if t.IsConst() {
				args[j] = t
				continue
			}
			id, ok := varMap[t.Var]
			if !ok {
				id = next
				next++
				varMap[t.Var] = id
			}
			args[j] = V(id)
		}
		canon[i] = &Atom{Rel: src.Rel, DB: src.DB, Args: args}
	}
	return &Expr{Atoms: canon, key: bestRender}, bestPerm
}

// bfsOrder returns a breadth-first ordering of atoms starting at seed with
// deterministic, isomorphism-invariant tie-breaking.
func bfsOrder(atoms []*Atom, seed int) []int {
	n := len(atoms)
	order := make([]int, 0, n)
	inOrder := make([]bool, n)
	varMap := map[int]int{}
	next := 0
	bind := func(a *Atom) {
		for _, t := range a.Args {
			if !t.IsConst() {
				if _, ok := varMap[t.Var]; !ok {
					varMap[t.Var] = next
					next++
				}
			}
		}
	}
	take := func(i int) {
		order = append(order, i)
		inOrder[i] = true
		bind(atoms[i])
	}
	take(seed)
	for len(order) < n {
		bestIdx := -1
		bestKey := ""
		for i := 0; i < n; i++ {
			if inOrder[i] {
				continue
			}
			connected := false
			for _, o := range order {
				if atomsShareVar(atoms[i], atoms[o]) {
					connected = true
					break
				}
			}
			key := renderAtomPartial(atoms[i], varMap)
			if !connected {
				key = "~" + key // disconnected atoms sort after connected ones
			}
			if bestIdx < 0 || key < bestKey {
				bestIdx, bestKey = i, key
			}
		}
		take(bestIdx)
	}
	return order
}

func atomsShareVar(a, b *Atom) bool {
	for _, ta := range a.Args {
		if ta.IsConst() {
			continue
		}
		for _, tb := range b.Args {
			if !tb.IsConst() && ta.Var == tb.Var {
				return true
			}
		}
	}
	return false
}

// renderAtomPartial renders an atom given the variable ids assigned so far;
// unassigned variables render as "?" so ties depend only on structure.
func renderAtomPartial(a *Atom, varMap map[int]int) string {
	var b strings.Builder
	b.WriteString(a.sig())
	b.WriteByte('[')
	for j, t := range a.Args {
		if j > 0 {
			b.WriteByte(',')
		}
		if t.IsConst() {
			b.WriteByte('=')
			continue
		}
		if id, ok := varMap[t.Var]; ok {
			fmt.Fprintf(&b, "$%d", id)
		} else {
			b.WriteByte('?')
		}
	}
	b.WriteByte(']')
	return b.String()
}

// renderOrdered renders atoms in the given order with canonical var ids.
func renderOrdered(atoms []*Atom, perm []int) string {
	varMap := map[int]int{}
	next := 0
	parts := make([]string, len(perm))
	for i, p := range perm {
		a := atoms[p]
		var b strings.Builder
		b.WriteString(a.Rel)
		b.WriteByte('@')
		b.WriteString(a.DB)
		b.WriteByte('(')
		for j, t := range a.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			if t.IsConst() {
				b.WriteByte('=')
				b.WriteString(t.Const.Key())
				continue
			}
			id, ok := varMap[t.Var]
			if !ok {
				id = next
				next++
				varMap[t.Var] = id
			}
			fmt.Fprintf(&b, "$%d", id)
		}
		b.WriteByte(')')
		parts[i] = b.String()
	}
	return strings.Join(parts, ";")
}

// ExprOccurrence records where a shared expression occurs inside a specific
// conjunctive query: AtomOf[i] is the index in CQ.Atoms corresponding to the
// expression's canonical atom i.
type ExprOccurrence struct {
	CQ     *CQ
	AtomOf []int
}
