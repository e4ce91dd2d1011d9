// Package candidates converts keyword queries into ranked lists of
// conjunctive queries (candidate networks) over the schema graph — the query
// generation stage the paper assumes as its front end (§3: "we assume a set
// of conjunctive queries for each search, generated using any of the methods
// cited in Section 2.1"). The generator follows the DISCOVER/Q System recipe:
//
//  1. match each keyword against relation names/metadata and the content
//     inverted index, keeping the best-scoring matches;
//  2. for each combination of matches (one relation per keyword), search the
//     schema graph for join trees connecting the matched relations,
//     enumerating alternative linking paths (e.g. CQ1 joins through
//     TblProtein⋈Entry2Meth while CQ2 links through RecordLink — Table 1);
//  3. map every tree to a conjunctive query: one atom per relation, join
//     predicates from the traversed edges, selection constants from content
//     matches; and
//  4. attach the user's scoring model and rank the queries by their score
//     upper bound U(C), truncating to MaxCQs.
package candidates

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/schemagraph"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

// Family selects the scoring model attached to generated queries (§2.1).
type Family int

const (
	// FamilyQSystem uses the Q System product model with learned edge costs.
	FamilyQSystem Family = iota
	// FamilyDiscover uses the DISCOVER sum model.
	FamilyDiscover
	// FamilyBANKS uses the BANKS-style weighted-sum model.
	FamilyBANKS
)

// Config parameterises generation.
type Config struct {
	// Graph is the schema graph with its keyword index.
	Graph *schemagraph.Graph
	// Catalog supplies per-relation score maxima for ranking by U(C).
	Catalog *catalog.Catalog
	// MatchesPerKeyword bounds how many keyword matches seed combinations.
	MatchesPerKeyword int
	// MaxAtoms bounds candidate-network size (query "size" in DISCOVER).
	MaxAtoms int
	// MaxPathLen bounds the length (in edges) of any linking path.
	MaxPathLen int
	// PathVariants bounds alternative linking paths tried per attachment.
	PathVariants int
	// Beam bounds partial join trees kept during tree growth.
	Beam int
	// MaxCQs truncates the ranked CQ list (the paper's workloads cap at 20).
	MaxCQs int
	// Family selects the scoring model.
	Family Family
}

// Defaults fills zero fields with the values used throughout §7.
func (c Config) Defaults() Config {
	if c.MatchesPerKeyword == 0 {
		c.MatchesPerKeyword = 3
	}
	if c.MaxAtoms == 0 {
		c.MaxAtoms = 7
	}
	if c.MaxPathLen == 0 {
		c.MaxPathLen = 3
	}
	if c.PathVariants == 0 {
		c.PathVariants = 3
	}
	if c.Beam == 0 {
		c.Beam = 8
	}
	if c.MaxCQs == 0 {
		c.MaxCQs = 20
	}
	return c
}

// Generate builds the user query for a keyword search. userRNG draws the
// per-user Zipfian coefficients on the scoring function (§7: "coefficients on
// the score functions for the various user queries were drawn from a Zipfian
// distribution"); pass a fixed-seed RNG per user for reproducibility.
//
// Generation is two steps. NewSkeleton derives everything that depends on the
// keywords and the schema graph alone; Instantiate attaches one arrival's
// coefficients. A caller that sees a keyword set again (Cache) repeats only
// the second.
func Generate(cfg Config, uqID string, keywords []string, k int, userRNG *dist.RNG) (*cq.UQ, error) {
	sk := NewSkeleton(cfg, keywords)
	return sk.Instantiate(uqID, keywords, k, sk.Draw(userRNG))
}

// Skeleton is the coefficient-free part of one keyword sequence's expansion:
// its join trees in generation order, each already converted to a query body
// (atoms, head vars) with the edge-cost and authority sums its scoring model
// will need — or the reason there are none. It is a function of the
// lower-cased keyword sequence, the defaulted Config and the schema graph at
// one generation, and is immutable once built, so any number of arrivals may
// instantiate it at once.
type Skeleton struct {
	cfg Config
	// gen is the schema graph's generation the skeleton was derived at.
	gen uint64
	// missing is the index of the first keyword that matches nothing, or -1.
	missing int
	// nets holds every join tree in the order the generator visits them,
	// including the ones it drops: their coefficients are drawn all the same.
	nets []network
	// draws is the number of coefficients one arrival consumes; kept the
	// number of nets that yield a query.
	draws, kept int
}

// network is one join tree of a skeleton.
type network struct {
	// body carries the tree's Atoms, HeadVars and canonical-form memo; every
	// arrival's query is an Instance of it. It is nil for a tree that yields
	// no query: its body failed cq.Validate, or an earlier tree has the same
	// canonical form.
	body *cq.CQ
	// draws is how many coefficients the tree consumes (one per relation).
	draws int
	// edgeCost and authority are the tree's summed edge costs and node
	// authorities, the static inputs of the scoring model.
	edgeCost, authority float64
}

// NewSkeleton runs the coefficient-free steps of generation (1 to 3 of the
// package comment) for a keyword sequence.
func NewSkeleton(cfg Config, keywords []string) *Skeleton {
	cfg = cfg.Defaults()
	// Read first: a mutation that lands while the skeleton is being derived
	// then leaves it stale, never current.
	s := &Skeleton{cfg: cfg, gen: cfg.Graph.Generation(), missing: -1}
	if len(keywords) == 0 {
		return s
	}
	matchSets := make([][]schemagraph.Match, len(keywords))
	for i, kw := range keywords {
		ms := cfg.Graph.Lookup(kw)
		if len(ms) == 0 {
			s.missing = i
			return s
		}
		if len(ms) > cfg.MatchesPerKeyword {
			ms = ms[:cfg.MatchesPerKeyword]
		}
		matchSets[i] = ms
	}
	seen := map[string]bool{}
	for _, combo := range combinations(matchSets) {
		for _, tr := range buildTrees(cfg, combo) {
			n, ok := treeToNetwork(cfg, tr, combo)
			if !ok {
				continue
			}
			if n.body != nil {
				if key := n.body.FullExpr().Key(); seen[key] {
					n.body = nil
				} else {
					seen[key] = true
					s.kept++
				}
			}
			s.draws += n.draws
			s.nets = append(s.nets, n)
		}
	}
	return s
}

// coefRanks is the rank table of the per-user scoring coefficients: Zipfian
// over 8 ranks, mapped into (0.5, 1] by Draw.
var coefRanks = dist.NewZipf(nil, 8, 1.0)

// Draw draws the coefficients one arrival of the skeleton consumes from the
// user's generator, in generation order. It is the only step of an expansion
// that touches per-user state.
func (s *Skeleton) Draw(userRNG *dist.RNG) []float64 {
	coefs := make([]float64, s.draws)
	for i := range coefs {
		coefs[i] = 1.0 - 0.5*float64(coefRanks.Draw(userRNG))/8.0
	}
	return coefs
}

// Instantiate builds one arrival's user query (step 4 of the package
// comment): a fresh cq.CQ and scoring model per surviving tree, ranked by
// U(C), truncated to MaxCQs and numbered. keywords is the arrival's spelling
// of the sequence the skeleton was built for (it is echoed in the query and
// in error text) and coefs is what Draw returned for the arrival.
func (s *Skeleton) Instantiate(uqID string, keywords []string, k int, coefs []float64) (*cq.UQ, error) {
	switch {
	case len(keywords) == 0:
		return nil, fmt.Errorf("candidates: empty keyword query")
	case s.missing >= 0:
		return nil, fmt.Errorf("candidates: keyword %q matches nothing", keywords[s.missing])
	case s.kept == 0:
		return nil, fmt.Errorf("candidates: no candidate network connects %v", keywords)
	}
	// Rank by nonincreasing score upper bound U(C) (§3).
	type ranked struct {
		q *cq.CQ
		u float64
	}
	rs := make([]ranked, 0, s.kept)
	for _, n := range s.nets {
		weights := coefs[:n.draws]
		coefs = coefs[n.draws:]
		if n.body == nil {
			continue
		}
		q := n.body.Instance("", uqID, s.model(n, weights))
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("candidates: %w", err)
		}
		rs = append(rs, ranked{q, UpperBound(s.cfg.Catalog, q)})
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].u > rs[j].u })
	if len(rs) > s.cfg.MaxCQs {
		rs = rs[:s.cfg.MaxCQs]
	}
	out := make([]*cq.CQ, len(rs))
	for i, r := range rs {
		out[i] = r.q
		out[i].ID = fmt.Sprintf("%s.CQ%d", uqID, i+1)
	}
	return &cq.UQ{ID: uqID, Keywords: keywords, K: k, CQs: out}, nil
}

// model builds a tree's scoring model under one arrival's weights.
func (s *Skeleton) model(n network, weights []float64) *scoring.Model {
	switch s.cfg.Family {
	case FamilyDiscover:
		m := scoring.Discover(len(weights))
		for i := range m.Weights {
			m.Weights[i] *= weights[i]
		}
		return m
	case FamilyBANKS:
		return scoring.BANKS(0.8, weights, 1/(1+n.edgeCost))
	default:
		return scoring.QSystem(n.edgeCost+n.authority, weights)
	}
}

// UpperBound computes U(C): the query's score with every atom at its
// relation's maximum score (§3).
func UpperBound(cat *catalog.Catalog, q *cq.CQ) float64 {
	maxima := make([]float64, len(q.Atoms))
	for i, a := range q.Atoms {
		maxima[i] = cat.MaxScoreOf(a.Rel)
	}
	return q.Model.MaxScore(maxima)
}

// combinations enumerates one match per keyword (cartesian product, in
// deterministic order, capped to keep generation tractable).
func combinations(sets [][]schemagraph.Match) [][]schemagraph.Match {
	const capCombos = 24
	out := [][]schemagraph.Match{{}}
	for _, set := range sets {
		var next [][]schemagraph.Match
		for _, prefix := range out {
			for _, m := range set {
				combo := append(append([]schemagraph.Match(nil), prefix...), m)
				next = append(next, combo)
				if len(next) >= capCombos {
					break
				}
			}
			if len(next) >= capCombos {
				break
			}
		}
		out = next
	}
	return out
}

// tree is a partial candidate network: relations plus traversed edges.
type tree struct {
	rels  []string // insertion order
	has   map[string]bool
	edges []*schemagraph.Edge
	cost  float64
}

func (t *tree) clone() *tree {
	nt := &tree{
		rels:  append([]string(nil), t.rels...),
		has:   make(map[string]bool, len(t.has)),
		edges: append([]*schemagraph.Edge(nil), t.edges...),
		cost:  t.cost,
	}
	for r := range t.has {
		nt.has[r] = true
	}
	return nt
}

// buildTrees grows join trees connecting the matched relations with beam
// search over alternative linking paths.
func buildTrees(cfg Config, combo []schemagraph.Match) []*tree {
	seedRel := combo[0].Rel
	beam := []*tree{{rels: []string{seedRel}, has: map[string]bool{seedRel: true}}}
	for _, m := range combo[1:] {
		var next []*tree
		for _, t := range beam {
			if t.has[m.Rel] {
				next = append(next, t)
				continue
			}
			paths := linkingPaths(cfg, t, m.Rel)
			for _, p := range paths {
				nt := t.clone()
				ok := true
				for _, e := range p {
					// e goes from inside the tree outward.
					if !nt.has[e.To] {
						nt.rels = append(nt.rels, e.To)
						nt.has[e.To] = true
					}
					nt.edges = append(nt.edges, e)
					nt.cost += e.Cost
					if len(nt.rels) > cfg.MaxAtoms {
						ok = false
						break
					}
				}
				if ok {
					next = append(next, nt)
				}
			}
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].cost < next[j].cost })
		if len(next) > cfg.Beam {
			next = next[:cfg.Beam]
		}
		beam = next
		if len(beam) == 0 {
			return nil
		}
	}
	return beam
}

// linkingPaths finds up to PathVariants simple paths from any tree relation
// to the target relation, cheapest first, each at most MaxPathLen edges.
func linkingPaths(cfg Config, t *tree, target string) [][]*schemagraph.Edge {
	type state struct {
		rel  string
		path []*schemagraph.Edge
		cost float64
	}
	var found []state
	var dfs func(s state, visited map[string]bool)
	dfs = func(s state, visited map[string]bool) {
		if len(found) >= cfg.PathVariants*4 {
			return
		}
		if s.rel == target {
			found = append(found, s)
			return
		}
		if len(s.path) >= cfg.MaxPathLen {
			return
		}
		for _, e := range cfg.Graph.EdgesFrom(s.rel) {
			// Allow re-entering the tree only at the start; intermediate
			// nodes must be fresh so each relation appears once per CQ.
			if visited[e.To] || (t.has[e.To] && e.To != target) {
				continue
			}
			visited[e.To] = true
			dfs(state{rel: e.To, path: append(append([]*schemagraph.Edge(nil), s.path...), e), cost: s.cost + e.Cost}, visited)
			visited[e.To] = false
		}
	}
	for _, start := range t.rels {
		visited := map[string]bool{}
		for r := range t.has {
			visited[r] = true
		}
		dfs(state{rel: start}, visited)
	}
	sort.SliceStable(found, func(i, j int) bool {
		if found[i].cost != found[j].cost {
			return found[i].cost < found[j].cost
		}
		return len(found[i].path) < len(found[j].path)
	})
	var out [][]*schemagraph.Edge
	seen := map[string]bool{}
	for _, s := range found {
		sig := pathSig(s.path)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, s.path)
		if len(out) >= cfg.PathVariants {
			break
		}
	}
	return out
}

func pathSig(p []*schemagraph.Edge) string {
	sig := ""
	for _, e := range p {
		sig += fmt.Sprintf("%s>%s/%d-%d;", e.From, e.To, e.FromCol, e.ToCol)
	}
	return sig
}

// treeToNetwork converts a join tree into a query body with the static
// inputs of its scoring model. ok is false for a tree over a relation the
// graph does not know, which consumes no coefficients.
func treeToNetwork(cfg Config, t *tree, combo []schemagraph.Match) (n network, ok bool) {
	// Assign each relation a contiguous variable block; unify across edges.
	varBase := map[string]int{}
	next := 0
	for _, r := range t.rels {
		node := cfg.Graph.Node(r)
		if node == nil {
			return network{}, false
		}
		varBase[r] = next
		next += node.Schema.NumCols()
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
	n = network{draws: len(t.rels), edgeCost: t.cost}
	var headVars []int
	for i, r := range t.rels {
		node := cfg.Graph.Node(r)
		args := make([]cq.Term, node.Schema.NumCols())
		for ci := range args {
			if cv, ok := selections[r][ci]; ok {
				args[ci] = cq.C(cv)
				continue
			}
			args[ci] = cq.V(find(varBase[r] + ci))
		}
		atoms[i] = &cq.Atom{Rel: r, DB: node.DB, Args: args}
		n.authority += node.Authority
		if kc := node.Schema.KeyCol(); kc >= 0 && !args[kc].IsConst() {
			headVars = append(headVars, args[kc].Var)
		}
	}
	body := &cq.CQ{Atoms: atoms, HeadVars: headVars}
	// Everything cq.Validate checks beyond the model's arity is a property of
	// the body, so a placeholder model decides it for every arrival.
	if body.Instance("", "", scoring.Discover(len(atoms))).Validate() == nil {
		n.body = body
	}
	return n, true
}
