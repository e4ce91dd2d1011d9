package cq

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

// chainCQ builds R0(x0,x1), R1(x1,x2), ..., R_{n-1}(x_{n-1},x_n).
func chainCQ(id string, n int) *CQ {
	atoms := make([]*Atom, n)
	for i := 0; i < n; i++ {
		atoms[i] = &Atom{Rel: relName(i), DB: "db", Args: []Term{V(i), V(i + 1)}}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &CQ{ID: id, UQID: "U", Atoms: atoms, Model: scoring.QSystem(0, w)}
}

func relName(i int) string { return string(rune('A' + i)) }

func TestValidate(t *testing.T) {
	q := chainCQ("q", 3)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := chainCQ("q2", 2)
	bad.Atoms[1].Args = []Term{V(90), V(91)} // disconnect
	if err := bad.Validate(); err == nil {
		t.Error("disconnected body accepted")
	}
	noModel := chainCQ("q3", 2)
	noModel.Model = nil
	if err := noModel.Validate(); err == nil {
		t.Error("nil model accepted")
	}
	arity := chainCQ("q4", 3)
	arity.Model = scoring.Discover(2)
	if err := arity.Validate(); err == nil {
		t.Error("model arity mismatch accepted")
	}
}

// The connectivity verdict is memoized on the shared body: a later
// instance of a known body validates without recomputing it, and every error
// Validate returns still reaches each instance.
func TestValidateOncePerBody(t *testing.T) {
	tmpl := chainCQ("tmpl", 5)
	if err := tmpl.Instance("UQ1.CQ1", "UQ1", scoring.Discover(5)).Validate(); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	later := tmpl.Instance("UQ2.CQ1", "UQ2", scoring.Discover(5))
	if allocs := testing.AllocsPerRun(100, func() {
		if later.Validate() != nil {
			t.Fatal("valid body rejected on a later arrival")
		}
	}); allocs != 0 {
		t.Errorf("validating a known body allocates %v times: the verdict was recomputed", allocs)
	}
	if tmpl.Instance("UQ3.CQ1", "UQ3", scoring.Discover(4)).Validate() == nil {
		t.Error("model arity mismatch accepted on a known body")
	}
	if tmpl.Instance("UQ4.CQ1", "UQ4", nil).Validate() == nil {
		t.Error("nil model accepted on a known body")
	}

	bad := chainCQ("bad", 2)
	bad.Atoms[1].Args = []Term{V(90), V(91)} // disconnect
	for i := 0; i < 2; i++ {
		if bad.Instance(fmt.Sprintf("UQ%d.CQ1", i), "UQ", scoring.Discover(2)).Validate() == nil {
			t.Errorf("arrival %d of a disconnected body accepted", i)
		}
	}
}

func TestSharesVarAndConnected(t *testing.T) {
	q := chainCQ("q", 4)
	if !q.SharesVar(0, 1) || q.SharesVar(0, 2) {
		t.Error("SharesVar wrong on chain")
	}
	if !q.Connected([]int{0, 1, 2, 3}) {
		t.Error("chain should be connected")
	}
	if q.Connected([]int{0, 2}) {
		t.Error("non-adjacent pair should be disconnected")
	}
	if !q.Connected([]int{1}) {
		t.Error("singleton is connected")
	}
	if q.Connected(nil) {
		t.Error("empty set is not connected")
	}
}

func TestJoinPreds(t *testing.T) {
	q := chainCQ("q", 3)
	preds := q.JoinPreds([]int{0, 1, 2})
	if len(preds) != 2 {
		t.Fatalf("chain of 3 should have 2 preds, got %d: %v", len(preds), preds)
	}
	// A star: R0(x0,x1), R1(x0,x2), R2(x0,x3) — one shared var, chained preds.
	star := &CQ{ID: "s", Atoms: []*Atom{
		{Rel: "A", Args: []Term{V(0), V(1)}},
		{Rel: "B", Args: []Term{V(0), V(2)}},
		{Rel: "C", Args: []Term{V(0), V(3)}},
	}, Model: scoring.Discover(3)}
	preds = star.JoinPreds([]int{0, 1, 2})
	if len(preds) != 2 {
		t.Fatalf("star var with 3 occurrences chains into 2 preds, got %d", len(preds))
	}
	// Selections contribute no preds.
	sel := &CQ{ID: "sel", Atoms: []*Atom{
		{Rel: "A", Args: []Term{V(0), C(tuple.String("x"))}},
		{Rel: "B", Args: []Term{V(0), V(1)}},
	}, Model: scoring.Discover(2)}
	if got := sel.JoinPreds([]int{0, 1}); len(got) != 1 {
		t.Errorf("selection produced pred: %v", got)
	}
}

func TestConnectedSubsetsChain(t *testing.T) {
	q := chainCQ("q", 4)
	subs := q.ConnectedSubsets(4)
	// A path of 4 has n(n+1)/2 = 10 connected subsets.
	if len(subs) != 10 {
		t.Fatalf("chain-4 connected subsets = %d, want 10", len(subs))
	}
	for _, s := range subs {
		if !q.Connected(s) {
			t.Errorf("subset %v not connected", s)
		}
	}
	capped := q.ConnectedSubsets(2)
	for _, s := range capped {
		if len(s) > 2 {
			t.Errorf("size cap violated: %v", s)
		}
	}
}

func TestSubExprCanonicalSharing(t *testing.T) {
	// The same chain with different variable numbering and atom order must
	// canonicalize identically.
	q1 := chainCQ("q1", 3)
	q2 := &CQ{ID: "q2", Atoms: []*Atom{
		{Rel: "C", DB: "db", Args: []Term{V(30), V(40)}},
		{Rel: "B", DB: "db", Args: []Term{V(20), V(30)}},
		{Rel: "A", DB: "db", Args: []Term{V(10), V(20)}},
	}, Model: scoring.Discover(3)}
	e1, m1 := q1.SubExpr([]int{0, 1, 2})
	e2, m2 := q2.SubExpr([]int{0, 1, 2})
	if e1.Key() != e2.Key() {
		t.Fatalf("isomorphic chains differ:\n%s\n%s", e1.Key(), e2.Key())
	}
	// Mappings must point at the same relations.
	for i := range m1 {
		if q1.Atoms[m1[i]].Rel != q2.Atoms[m2[i]].Rel {
			t.Errorf("mapping disagrees at %d", i)
		}
	}
}

func TestSubExprDistinguishesConstants(t *testing.T) {
	a := &CQ{ID: "a", Atoms: []*Atom{
		{Rel: "T", Args: []Term{V(0), C(tuple.String("plasma membrane"))}},
		{Rel: "G", Args: []Term{V(0), V(1)}},
	}, Model: scoring.Discover(2)}
	b := &CQ{ID: "b", Atoms: []*Atom{
		{Rel: "T", Args: []Term{V(0), C(tuple.String("metabolism"))}},
		{Rel: "G", Args: []Term{V(0), V(1)}},
	}, Model: scoring.Discover(2)}
	ea, _ := a.SubExpr([]int{0, 1})
	eb, _ := b.SubExpr([]int{0, 1})
	if ea.Key() == eb.Key() {
		t.Error("different selection constants must not share a key")
	}
}

func TestSubExprDistinguishesJoinShape(t *testing.T) {
	// A(x,y),B(y,z) vs A(x,y),B(z,y): different join columns.
	q1 := &CQ{ID: "1", Atoms: []*Atom{
		{Rel: "A", Args: []Term{V(0), V(1)}},
		{Rel: "B", Args: []Term{V(1), V(2)}},
	}, Model: scoring.Discover(2)}
	q2 := &CQ{ID: "2", Atoms: []*Atom{
		{Rel: "A", Args: []Term{V(0), V(1)}},
		{Rel: "B", Args: []Term{V(2), V(1)}},
	}, Model: scoring.Discover(2)}
	e1, _ := q1.SubExpr([]int{0, 1})
	e2, _ := q2.SubExpr([]int{0, 1})
	if e1.Key() == e2.Key() {
		t.Error("different join shapes must not share a key")
	}
}

// BodyKey is positional where Expr.Key is canonical: renaming variables keeps
// it, while a different atom order, join column or selection constant — any
// of which would make another query's atom indexes mean something else —
// changes it.
func TestBodyKeyPositionalIdentity(t *testing.T) {
	base := chainCQ("q1", 3)
	renamed := &CQ{ID: "other", Atoms: []*Atom{
		{Rel: "A", DB: "db", Args: []Term{V(70), V(50)}},
		{Rel: "B", DB: "db", Args: []Term{V(50), V(9)}},
		{Rel: "C", DB: "db", Args: []Term{V(9), V(1)}},
	}, Model: scoring.Discover(3)}
	if base.BodyKey() != renamed.BodyKey() {
		t.Fatalf("variable renaming changed the body key:\n%s\n%s", base.BodyKey(), renamed.BodyKey())
	}
	reordered := &CQ{ID: "q1", Atoms: []*Atom{base.Atoms[1], base.Atoms[0], base.Atoms[2]}, Model: base.Model}
	rejoined := chainCQ("q1", 3)
	rejoined.Atoms[2] = &Atom{Rel: "C", DB: "db", Args: []Term{V(3), V(2)}}
	selected := chainCQ("q1", 3)
	selected.Atoms[2] = &Atom{Rel: "C", DB: "db", Args: []Term{V(2), C(tuple.Int(7))}}
	elsewhere := chainCQ("q1", 3)
	elsewhere.Atoms[0] = &Atom{Rel: "A", DB: "db2", Args: []Term{V(0), V(1)}}
	for name, q := range map[string]*CQ{"atom order": reordered, "join column": rejoined, "constant": selected, "database": elsewhere} {
		if q.BodyKey() == base.BodyKey() {
			t.Errorf("a different %s kept the body key %s", name, q.BodyKey())
		}
	}
	if e, _ := reordered.SubExpr([]int{0, 1, 2}); e.Key() != base.FullExpr().Key() {
		t.Error("FullExpr is not the canonical whole-body expression")
	}
	if base.FullExpr() != base.FullExpr() {
		t.Error("FullExpr not memoized")
	}
}

// Property: canonicalization is invariant under random variable renaming and
// atom permutation of random connected queries.
func TestCanonicalizeInvariance(t *testing.T) {
	rng := dist.New(123)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		q := randomConnectedCQ(rng, n)
		e1, _ := q.SubExpr(allIdx(n))

		// Rename variables with a random injective map and permute atoms.
		varMap := map[int]int{}
		perm := rng.Intn(1 << 30)
		atoms := make([]*Atom, n)
		order := randPerm(rng, n)
		for i, p := range order {
			src := q.Atoms[p]
			args := make([]Term, len(src.Args))
			for j, tm := range src.Args {
				if tm.IsConst() {
					args[j] = tm
					continue
				}
				nv, ok := varMap[tm.Var]
				if !ok {
					nv = 1000 + len(varMap)*7 + perm%3
					varMap[tm.Var] = nv
				}
				args[j] = V(nv)
			}
			atoms[i] = &Atom{Rel: src.Rel, DB: src.DB, Args: args}
		}
		q2 := &CQ{ID: "renamed", Atoms: atoms, Model: q.Model}
		e2, _ := q2.SubExpr(allIdx(n))
		if e1.Key() != e2.Key() {
			t.Fatalf("trial %d: canonical keys differ under renaming\n%s\n%s\n%s\n%s",
				trial, q, q2, e1.Key(), e2.Key())
		}
	}
}

// randomConnectedCQ builds a random connected query over distinct relations
// (tree-shaped joins with occasional selection constants).
func randomConnectedCQ(rng *dist.RNG, n int) *CQ {
	atoms := make([]*Atom, n)
	nextVar := 0
	newVar := func() int { nextVar++; return nextVar - 1 }
	for i := 0; i < n; i++ {
		arity := 2 + rng.Intn(2)
		args := make([]Term, arity)
		for j := range args {
			args[j] = V(newVar())
		}
		if i > 0 {
			// Connect to a random earlier atom via a shared variable.
			prev := atoms[rng.Intn(i)]
			pv := prev.Args[rng.Intn(len(prev.Args))]
			for pv.IsConst() {
				pv = prev.Args[rng.Intn(len(prev.Args))]
			}
			args[rng.Intn(arity)] = pv
		}
		if rng.Intn(4) == 0 {
			// Sprinkle a selection constant on a non-joining position.
			pos := rng.Intn(arity)
			if !usedElsewhere(atoms[:i], args, pos) {
				args[pos] = C(tuple.String("c" + string(rune('a'+rng.Intn(3)))))
			}
		}
		atoms[i] = &Atom{Rel: "Rel" + string(rune('A'+i)), DB: "db", Args: args}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	q := &CQ{ID: "rand", Atoms: atoms, Model: scoring.QSystem(0, w)}
	if q.Validate() != nil {
		// Constant overwrote the connecting variable; retry without consts.
		for _, a := range atoms {
			for j, tm := range a.Args {
				if tm.IsConst() {
					a.Args[j] = V(newVar())
				}
			}
		}
		// Reconnect linearly for safety.
		for i := 1; i < n; i++ {
			atoms[i].Args[0] = atoms[i-1].Args[len(atoms[i-1].Args)-1]
		}
	}
	return q
}

func usedElsewhere(prev []*Atom, args []Term, pos int) bool {
	v := args[pos]
	if v.IsConst() {
		return true
	}
	for _, a := range prev {
		for _, tm := range a.Args {
			if !tm.IsConst() && tm.Var == v.Var {
				return true
			}
		}
	}
	for j, tm := range args {
		if j != pos && !tm.IsConst() && tm.Var == v.Var {
			return true
		}
	}
	return false
}

func randPerm(rng *dist.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestExprProperties(t *testing.T) {
	q := chainCQ("q", 3)
	e, _ := q.SubExpr([]int{0, 1, 2})
	if e.Arity() != 3 || e.SingleAtom() || e.IsBase() {
		t.Error("multi-atom expr misclassified")
	}
	if e.SingleDB() != "db" {
		t.Errorf("single db = %q", e.SingleDB())
	}
	single, _ := q.SubExpr([]int{1})
	if !single.SingleAtom() || !single.IsBase() {
		t.Error("base atom misclassified")
	}
	withConst := &CQ{ID: "c", Atoms: []*Atom{
		{Rel: "T", Args: []Term{V(0), C(tuple.String("x"))}},
	}, Model: scoring.Discover(1)}
	ec, _ := withConst.SubExpr([]int{0})
	if !ec.SingleAtom() || ec.IsBase() {
		t.Error("selection atom should not be IsBase")
	}
	// Cross-DB expression.
	q2 := chainCQ("q2", 2)
	q2.Atoms[1].DB = "other"
	e2, _ := q2.SubExpr([]int{0, 1})
	if e2.SingleDB() != "" {
		t.Error("cross-db expr should report no single DB")
	}
	if !e.SharesRelation(e2) {
		t.Error("exprs sharing relation A should report overlap")
	}
}

func TestUQFields(t *testing.T) {
	uq := &UQ{ID: "UQ1", Keywords: []string{"a", "b"}, K: 10, CQs: []*CQ{chainCQ("c1", 2)}}
	if uq.K != 10 || len(uq.CQs) != 1 {
		t.Error("UQ fields")
	}
}

// Instance mints queries over one body: the Atoms slice, the head vars and
// the canonical-form memo are shared, so a form one instance computed is the
// very Expr the next finds. Clone shares the atoms and nothing of the memo.
func TestInstanceSharesBodyCloneDoesNot(t *testing.T) {
	tmpl := chainCQ("tmpl", 4)
	tmpl.HeadVars = []int{0, 3}
	a := tmpl.Instance("UQ1.CQ1", "UQ1", scoring.Discover(4))
	b := tmpl.Instance("UQ2.CQ1", "UQ2", scoring.QSystem(0.5, []float64{1, 1, 1, 1}))
	if a.ID != "UQ1.CQ1" || a.UQID != "UQ1" || b.Model.Label != "qsystem" || a.Model == b.Model {
		t.Fatalf("instances do not carry their own identity and model: %v / %v", a, b)
	}
	if &a.Atoms[0] != &tmpl.Atoms[0] || &b.HeadVars[0] != &tmpl.HeadVars[0] {
		t.Error("Instance copied the body")
	}
	ea, ma := a.SubExpr([]int{1, 2})
	eb, mb := b.SubExpr([]int{1, 2})
	if ea != eb {
		t.Error("second instance re-derived a subexpression the first had canonicalized")
	}
	ma[0] = -1
	if mb[0] == -1 {
		t.Error("SubExpr mappings alias each other across instances")
	}
	if a.FullExpr() != b.FullExpr() || a.FullExpr() != tmpl.FullExpr() {
		t.Error("FullExpr not shared across instances")
	}
	if a.BodyKey() != b.BodyKey() {
		t.Error("BodyKey differs across instances")
	}

	c := a.Clone()
	if ec, _ := c.SubExpr([]int{1, 2}); ec == ea {
		t.Error("Clone kept the memo")
	} else if ec.Key() != ea.Key() {
		t.Errorf("clone canonicalizes differently: %s vs %s", ec.Key(), ea.Key())
	}
}

// A body is reached from several goroutines at once — the front desk hands a
// new instance to a client while a shard admits an earlier one — so every
// memo access must be ordered. Run under -race.
func TestSharedBodyConcurrentUse(t *testing.T) {
	tmpl := chainCQ("tmpl", 6)
	subsets := tmpl.ConnectedSubsets(4)
	want := map[string]string{}
	ref := tmpl.Clone()
	for _, idxs := range subsets {
		e, _ := ref.SubExpr(idxs)
		want[fmt.Sprint(idxs)] = e.Key()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				q := tmpl.Instance(fmt.Sprintf("g%d.%d", g, round), "UQ", scoring.Discover(6))
				for i := range subsets {
					idxs := subsets[(i+g*7)%len(subsets)]
					e, mapping := q.SubExpr(idxs)
					if e.Key() != want[fmt.Sprint(idxs)] || len(mapping) != len(idxs) {
						t.Errorf("goroutine %d: SubExpr(%v) = %s", g, idxs, e.Key())
						return
					}
				}
				if q.FullExpr().Arity() != 6 || q.BodyKey() == "" || q.Validate() != nil {
					t.Errorf("goroutine %d: bad full expression", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
