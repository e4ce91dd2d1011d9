package coretest

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cq"
	"repro/internal/relationdb"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// scoreTol is the absolute tolerance CheckOracle compares scores within.
const scoreTol = 1e-9

// OracleScores is the brute-force top-k: every conjunctive query of the
// search is joined by backtracking over the stored relations, every result
// scored by the query's model, and the k best scores over all of them
// returned in non-increasing order. It shares no code with the engine beyond
// the relation store's hash lookup.
func OracleScores(w *workload.Workload, uq *cq.UQ) ([]float64, error) {
	var all []float64
	for _, q := range uq.CQs {
		rels := make([]*relationdb.Relation, len(q.Atoms))
		repeated := false
		seenRel := map[string]bool{}
		for i, atom := range q.Atoms {
			db, err := w.Fleet.DB(atom.DB)
			if err != nil {
				return nil, err
			}
			if rels[i], err = db.Store().Relation(atom.Rel); err != nil {
				return nil, err
			}
			repeated = repeated || seenRel[atom.Rel]
			seenRel[atom.Rel] = true
		}
		order := joinOrder(q)
		parts := make([]*tuple.Tuple, len(q.Atoms))
		scores := make([]float64, len(q.Atoms))
		// The engine counts a set of base tuples once per query however the
		// atoms are matched to it; only self-joins can produce it twice.
		var seen map[string]bool
		if repeated {
			seen = map[string]bool{}
		}
		var walk func(depth int, binding map[int]tuple.Value)
		walk = func(depth int, binding map[int]tuple.Value) {
			if depth == len(order) {
				if seen != nil {
					id := tuple.NewRow(parts...).Identity()
					if seen[id] {
						return
					}
					seen[id] = true
				}
				for i, t := range parts {
					scores[i] = t.Score()
				}
				all = append(all, q.Model.Score(scores))
				return
			}
			ai := order[depth]
			atom := q.Atoms[ai]
			for _, t := range candidatesFor(rels[ai], atom, binding) {
				next := make(map[int]tuple.Value, len(binding)+len(atom.Args))
				for k, v := range binding {
					next[k] = v
				}
				if !atomAccepts(atom, t, next) {
					continue
				}
				parts[ai] = t
				walk(depth+1, next)
			}
		}
		walk(0, map[int]tuple.Value{})
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if len(all) > uq.K {
		all = all[:uq.K]
	}
	return all, nil
}

// CheckOracle compares a search's answer scores, in rank order, with the
// brute-force top-k.
func CheckOracle(w *workload.Workload, uq *cq.UQ, got []float64) error {
	want, err := OracleScores(w, uq)
	if err != nil {
		return fmt.Errorf("%s: oracle: %w", uq.ID, err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d answers, oracle finds %d", uq.ID, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > scoreTol {
			return fmt.Errorf("%s: rank %d scored %.12g, oracle %.12g", uq.ID, i+1, got[i], want[i])
		}
	}
	return nil
}

// joinOrder starts from an atom with a selection constant (any atom when
// there is none) and grows by atoms sharing a variable with those placed.
func joinOrder(q *cq.CQ) []int {
	n := len(q.Atoms)
	placed := make([]bool, n)
	first := 0
	for i, atom := range q.Atoms {
		hasConst := false
		for _, term := range atom.Args {
			hasConst = hasConst || term.IsConst()
		}
		if hasConst {
			first = i
			break
		}
	}
	order := []int{first}
	placed[first] = true
	for len(order) < n {
		next := -1
		for i := 0; i < n && next < 0; i++ {
			if placed[i] {
				continue
			}
			for _, j := range order {
				if q.SharesVar(i, j) {
					next = i
					break
				}
			}
		}
		if next < 0 { // disconnected body: Validate rejects these, but stay total
			for i := 0; i < n; i++ {
				if !placed[i] {
					next = i
					break
				}
			}
		}
		order = append(order, next)
		placed[next] = true
	}
	return order
}

// candidatesFor narrows the relation by one hash lookup on a constant or an
// already bound variable; atomAccepts then filters the rest.
func candidatesFor(rel *relationdb.Relation, atom *cq.Atom, binding map[int]tuple.Value) []*tuple.Tuple {
	for col, term := range atom.Args {
		if term.IsConst() {
			return rel.Lookup(col, term.Const)
		}
		if v, ok := binding[term.Var]; ok {
			return rel.Lookup(col, v)
		}
	}
	return rel.Rows()
}

// atomAccepts reports whether t satisfies the atom under the variable
// binding so far, extending the binding with the atom's unbound variables.
func atomAccepts(atom *cq.Atom, t *tuple.Tuple, binding map[int]tuple.Value) bool {
	for col, term := range atom.Args {
		v := t.Val(col)
		if term.IsConst() {
			if !v.Equal(term.Const) {
				return false
			}
			continue
		}
		if bound, ok := binding[term.Var]; ok {
			if !v.Equal(bound) {
				return false
			}
		} else {
			binding[term.Var] = v
		}
	}
	return true
}
