package candidates

import (
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/schemagraph"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

// The generator as it stood before it was split into a coefficient-free
// skeleton and a per-arrival instantiation: one pass that draws each tree's
// coefficients as it converts the tree. It is kept verbatim (renamed) as the
// reference the split is compared against, draw for draw.

// referenceGenerate builds the user query for a keyword search. userRNG draws the
// per-user Zipfian coefficients on the scoring function (§7: "coefficients on
// the score functions for the various user queries were drawn from a Zipfian
// distribution"); pass a fixed-seed RNG per user for reproducibility.
func referenceGenerate(cfg Config, uqID string, keywords []string, k int, userRNG *dist.RNG) (*cq.UQ, error) {
	cfg = cfg.Defaults()
	if len(keywords) == 0 {
		return nil, fmt.Errorf("candidates: empty keyword query")
	}
	matchSets := make([][]schemagraph.Match, len(keywords))
	for i, kw := range keywords {
		ms := cfg.Graph.Lookup(kw)
		if len(ms) == 0 {
			return nil, fmt.Errorf("candidates: keyword %q matches nothing", kw)
		}
		if len(ms) > cfg.MatchesPerKeyword {
			ms = ms[:cfg.MatchesPerKeyword]
		}
		matchSets[i] = ms
	}
	// Per-user scoring coefficients: Zipfian ranks mapped into (0.5, 1].
	coefZipf := dist.NewZipf(userRNG, 8, 1.0)
	coefFor := func() float64 { return 1.0 - 0.5*float64(coefZipf.Next())/8.0 }

	seen := map[string]bool{}
	var generated []*cq.CQ
	for _, combo := range combinations(matchSets) {
		trees := buildTrees(cfg, combo)
		for _, tr := range trees {
			q := referenceTreeToCQ(cfg, tr, combo, uqID, len(generated), coefFor)
			if q == nil {
				continue
			}
			expr, _ := q.SubExpr(allIndexes(len(q.Atoms)))
			if seen[expr.Key()] {
				continue
			}
			seen[expr.Key()] = true
			generated = append(generated, q)
		}
	}
	if len(generated) == 0 {
		return nil, fmt.Errorf("candidates: no candidate network connects %v", keywords)
	}
	// Rank by nonincreasing score upper bound U(C) (§3).
	type ranked struct {
		q *cq.CQ
		u float64
	}
	rs := make([]ranked, len(generated))
	for i, q := range generated {
		rs[i] = ranked{q, UpperBound(cfg.Catalog, q)}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].u > rs[j].u })
	if len(rs) > cfg.MaxCQs {
		rs = rs[:cfg.MaxCQs]
	}
	out := make([]*cq.CQ, len(rs))
	for i, r := range rs {
		out[i] = r.q
		out[i].ID = fmt.Sprintf("%s.CQ%d", uqID, i+1)
	}
	return &cq.UQ{ID: uqID, Keywords: keywords, K: k, CQs: out}, nil
}

func allIndexes(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// referenceTreeToCQ converts a join tree into a conjunctive query with its scoring
// model.
func referenceTreeToCQ(cfg Config, t *tree, combo []schemagraph.Match, uqID string, ordinal int, coefFor func() float64) *cq.CQ {
	// Assign each relation a contiguous variable block; unify across edges.
	varBase := map[string]int{}
	next := 0
	for _, r := range t.rels {
		n := cfg.Graph.Node(r)
		if n == nil {
			return nil
		}
		varBase[r] = next
		next += n.Schema.NumCols()
	}
	parent := make([]int, next)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range t.edges {
		union(varBase[e.From]+e.FromCol, varBase[e.To]+e.ToCol)
	}
	// Content-match selections: constant at the matched column.
	selections := map[string]map[int]tuple.Value{}
	for _, m := range combo {
		if m.Exact || m.Col < 0 {
			continue
		}
		if selections[m.Rel] == nil {
			selections[m.Rel] = map[int]tuple.Value{}
		}
		selections[m.Rel][m.Col] = tuple.String(m.Term)
	}
	atoms := make([]*cq.Atom, len(t.rels))
	weights := make([]float64, len(t.rels))
	edgeCostSum := t.cost
	staticMatch := 1.0
	for _, m := range combo {
		if m.Exact {
			staticMatch *= m.Score
		}
	}
	var headVars []int
	for i, r := range t.rels {
		n := cfg.Graph.Node(r)
		args := make([]cq.Term, n.Schema.NumCols())
		for ci := range args {
			if cv, ok := selections[r][ci]; ok {
				args[ci] = cq.C(cv)
				continue
			}
			args[ci] = cq.V(find(varBase[r] + ci))
		}
		atoms[i] = &cq.Atom{Rel: r, DB: n.DB, Args: args}
		weights[i] = coefFor()
		if kc := n.Schema.KeyCol(); kc >= 0 && !args[kc].IsConst() {
			headVars = append(headVars, args[kc].Var)
		}
	}
	var model *scoring.Model
	switch cfg.Family {
	case FamilyDiscover:
		model = scoring.Discover(len(atoms))
		for i := range model.Weights {
			model.Weights[i] *= weights[i]
		}
	case FamilyBANKS:
		model = scoring.BANKS(0.8, weights, 1/(1+edgeCostSum))
	default:
		authSum := 0.0
		for _, r := range t.rels {
			authSum += cfg.Graph.Node(r).Authority
		}
		model = scoring.QSystem(edgeCostSum+authSum, weights)
	}
	q := &cq.CQ{
		ID:       fmt.Sprintf("%s.cand%d", uqID, ordinal),
		UQID:     uqID,
		Atoms:    atoms,
		Model:    model,
		HeadVars: headVars,
	}
	if err := q.Validate(); err != nil {
		return nil
	}
	return q
}
