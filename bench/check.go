package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/fleet"
	"repro/internal/relationdb"
	"repro/internal/service"
	"repro/internal/tuple"
	"repro/internal/workload"
)

const scoreTol = 1e-9

// checkAnswers verifies one result against its expanded query, consulting
// nothing the engine computed but the answers themselves: at most k answers,
// ranked 1..n in non-increasing score order, each one tuple per atom of a
// conjunctive query of this search, satisfying that query's constants and
// joins, and scoring what the query's model gives those tuples.
func checkAnswers(uq *cq.UQ, answers []service.Answer) error {
	if len(answers) > uq.K {
		return fmt.Errorf("%s: %d answers for k=%d", uq.ID, len(answers), uq.K)
	}
	byID := make(map[string]*cq.CQ, len(uq.CQs))
	for _, q := range uq.CQs {
		byID[q.ID] = q
	}
	scores := make([]float64, 0, 8)
	for i, a := range answers {
		if a.Rank != i+1 {
			return fmt.Errorf("%s: answer %d has rank %d", uq.ID, i, a.Rank)
		}
		if i > 0 && a.Score > answers[i-1].Score+scoreTol {
			return fmt.Errorf("%s: score rises at rank %d", uq.ID, a.Rank)
		}
		q := byID[a.Query]
		if q == nil {
			return fmt.Errorf("%s: answer from %q, not a query of this search", uq.ID, a.Query)
		}
		if len(a.Tuples) != len(q.Atoms) {
			return fmt.Errorf("%s: %d tuples for %d atoms", a.Query, len(a.Tuples), len(q.Atoms))
		}
		binding := map[int]tuple.Value{}
		scores = scores[:0]
		for ai, atom := range q.Atoms {
			t := a.Tuples[ai]
			if t.Schema().Name() != atom.Rel {
				return fmt.Errorf("%s: atom %d is %s, tuple is of %s", a.Query, ai, atom.Rel, t.Schema().Name())
			}
			if !atomAccepts(atom, t, binding) {
				return fmt.Errorf("%s: tuple %s breaks atom %d", a.Query, t.QualifiedIdentity(), ai)
			}
			scores = append(scores, t.Score())
		}
		if want := q.Model.Score(scores); math.Abs(want-a.Score) > scoreTol {
			return fmt.Errorf("%s: rank %d scored %.12g, model gives %.12g", a.Query, a.Rank, a.Score, want)
		}
	}
	return nil
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

// checkView is checkAnswers for a wire result, whose tuples are reduced to
// "Relation:identity" strings. uq is the front-end's expansion when the
// benchmark could reproduce it (sequential phases) and nil otherwise; with it
// every answer must name one tuple of the right relation per atom.
func checkView(v *fleet.ResultView, uq *cq.UQ) error {
	if len(v.Answers) > topK {
		return fmt.Errorf("%s: %d answers for k=%d", v.ID, len(v.Answers), topK)
	}
	byID := map[string]*cq.CQ{}
	if uq != nil {
		if uq.ID != v.ID {
			return fmt.Errorf("front-end answered %s, expected %s", v.ID, uq.ID)
		}
		for _, q := range uq.CQs {
			byID[q.ID] = q
		}
	}
	for i, a := range v.Answers {
		if a.Rank != i+1 {
			return fmt.Errorf("%s: answer %d has rank %d", v.ID, i, a.Rank)
		}
		if i > 0 && a.Score > v.Answers[i-1].Score+scoreTol {
			return fmt.Errorf("%s: score rises at rank %d", v.ID, a.Rank)
		}
		if len(a.IDs) == 0 {
			return fmt.Errorf("%s: rank %d has no tuples", v.ID, a.Rank)
		}
		if uq == nil {
			continue
		}
		q := byID[a.Query]
		if q == nil {
			return fmt.Errorf("%s: answer from %q, not a query of this search", v.ID, a.Query)
		}
		if len(a.IDs) != len(q.Atoms) {
			return fmt.Errorf("%s: %d tuples for %d atoms", a.Query, len(a.IDs), len(q.Atoms))
		}
		for ai, atom := range q.Atoms {
			if !strings.HasPrefix(a.IDs[ai], atom.Rel+":") {
				return fmt.Errorf("%s: atom %d is %s, tuple is %s", a.Query, ai, atom.Rel, a.IDs[ai])
			}
		}
	}
	return nil
}

// oracleScores is the brute-force top-k: every conjunctive query of the
// search is joined by backtracking over the stored relations, every result
// scored by the query's model, and the k best scores over all of them
// returned in non-increasing order. It shares no code with the engine beyond
// the relation store's hash lookup.
func oracleScores(w *workload.Workload, uq *cq.UQ) ([]float64, error) {
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

// checkOracle compares an answer list's score vector with the brute-force
// top-k.
func checkOracle(w *workload.Workload, uq *cq.UQ, got []float64) error {
	want, err := oracleScores(w, uq)
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

func answerScores(answers []service.Answer) []float64 {
	out := make([]float64, len(answers))
	for i, a := range answers {
		out[i] = a.Score
	}
	return out
}

func viewScores(v *fleet.ResultView) []float64 {
	out := make([]float64, len(v.Answers))
	for i, a := range v.Answers {
		out[i] = a.Score
	}
	return out
}
