package tuple

import (
	"slices"
	"strings"
	"sync/atomic"
)

// Row is a (partial or complete) join result: an ordered list of base tuples,
// one per atom of the expression that produced it. Rows flow along plan-graph
// edges; because a shared subexpression may feed conjunctive queries owned by
// different users with different scoring functions (§2.2), a Row does NOT
// carry a final score — each consumer applies its own scoring model to the
// Row's part scores.
type Row struct {
	parts []*Tuple

	// ident caches the identity hash and, once built, the identity string:
	// rank-merge dedup, recovery dedup and deterministic tie-breaks all ask
	// for the hash per offered row, so it is computed at most once per row,
	// and the string only when a tie is broken or hashes collide. The cache
	// is an atomic pointer because pushed-down result rows are materialised
	// once per expression in the remote-database view cache and then read
	// concurrently by every shard goroutine streaming that expression.
	ident atomic.Pointer[rowIdent]
}

// rowIdent is a row's FNV-1a identity hash with its lazily built identity
// string. Rows that inherit an identity share one, string included.
type rowIdent struct {
	h uint64
	s atomic.Pointer[string]
}

// NewRow builds a row over the given parts. The slice is owned by the row.
func NewRow(parts ...*Tuple) *Row { return &Row{parts: parts} }

// Arity returns the number of base tuples in the row.
func (r *Row) Arity() int { return len(r.parts) }

// Part returns the i'th base tuple.
func (r *Row) Part(i int) *Tuple { return r.parts[i] }

// Parts returns the backing slice; callers must not mutate it.
func (r *Row) Parts() []*Tuple { return r.parts }

// Concat returns a new row with o's parts appended after r's. Neither input
// is mutated, so rows buffered in hash tables stay valid (§6 state reuse).
func (r *Row) Concat(o *Row) *Row {
	parts := make([]*Tuple, 0, len(r.parts)+len(o.parts))
	parts = append(parts, r.parts...)
	parts = append(parts, o.parts...)
	return &Row{parts: parts}
}

// Project returns a new row keeping only the parts at the given positions,
// in the given order. It is used to re-order a component's output into a
// consumer CQ's atom order.
func (r *Row) Project(positions []int) *Row {
	parts := make([]*Tuple, len(positions))
	for i, p := range positions {
		parts[i] = r.parts[p]
	}
	return &Row{parts: parts}
}

// PartScores returns the per-part scores in part order, appending into dst.
func (r *Row) PartScores(dst []float64) []float64 {
	for _, p := range r.parts {
		dst = append(dst, p.Score())
	}
	return dst
}

// ScoreProduct returns the product of part scores: the canonical row score
// used to order pushed-down streams (see DESIGN.md §1 note on sharing across
// scoring-model families).
func (r *Row) ScoreProduct() float64 {
	prod := 1.0
	for _, p := range r.parts {
		prod *= p.Score()
	}
	return prod
}

// Identity returns a canonical identity for duplicate elimination: the sorted
// identities of the row's parts, qualified by relation name and joined by
// "&". Two rows built from the same base tuples (possibly in different part
// orders by different plan shapes) share an Identity. The result is computed
// once and cached.
func (r *Row) Identity() string {
	id := r.identity()
	if s := id.s.Load(); s != nil {
		return *s
	}
	var keys [maxStackParts]string
	s := strings.Join(r.sortedKeys(keys[:0]), "&")
	// Concurrent computations produce the identical value; last store wins.
	id.s.Store(&s)
	return s
}

// IdentityHash returns the 64-bit FNV-1a hash of Identity(), computed over
// the sorted part identities without joining them: the cheap set-membership
// fast path used by rank-merge seen-sets and log identity sets. Like
// Identity it is computed at most once per row.
func (r *Row) IdentityHash() uint64 { return r.identity().h }

// SameIdentity reports whether r and o have equal identities. Unequal
// hashes settle it, and equal sorted part identities confirm it, without
// building either string; only a hash collision (or a part identity holding
// the separator) compares the strings.
func (r *Row) SameIdentity(o *Row) bool {
	if r == o {
		return true
	}
	if r.IdentityHash() != o.IdentityHash() {
		return false
	}
	var ka, kb [maxStackParts]string
	if slices.Equal(r.sortedKeys(ka[:0]), o.sortedKeys(kb[:0])) {
		return true
	}
	return r.Identity() == o.Identity()
}

// InheritIdentity copies o's cached identity into r, avoiding a recompute.
// It must only be used when r is a reordering/projection of exactly o's parts
// (identity is part-order invariant, so the identities are equal by
// construction). A nil or uncached o is a no-op.
func (r *Row) InheritIdentity(o *Row) {
	if o == nil {
		return
	}
	if id := o.ident.Load(); id != nil {
		r.ident.Store(id)
	}
}

// maxStackParts is the widest row whose part identities are sorted in a
// stack array; wider rows sort in a heap slice.
const maxStackParts = 8

// sortedKeys appends the row's qualified part identities to dst in sorted
// order.
func (r *Row) sortedKeys(dst []string) []string {
	for _, p := range r.parts {
		dst = append(dst, p.QualifiedIdentity())
	}
	slices.Sort(dst)
	return dst
}

func (r *Row) identity() *rowIdent {
	if id := r.ident.Load(); id != nil {
		return id
	}
	var keys [maxStackParts]string
	h := uint64(fnvOffset)
	for i, k := range r.sortedKeys(keys[:0]) {
		if i > 0 {
			h = fnvByte(h, '&')
		}
		for j := 0; j < len(k); j++ {
			h = fnvByte(h, k[j])
		}
	}
	id := &rowIdent{h: h}
	// Concurrent computations produce the identical hash; last store wins.
	r.ident.Store(id)
	return id
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvByte folds one byte into a 64-bit FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnv1a is the 64-bit FNV-1a hash of s, byte by byte, so no hash.Hash is
// allocated on the hot path.
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// String renders the row as part strings joined by " ⋈ ".
func (r *Row) String() string {
	ss := make([]string, len(r.parts))
	for i, p := range r.parts {
		ss[i] = p.String()
	}
	return strings.Join(ss, " & ")
}
