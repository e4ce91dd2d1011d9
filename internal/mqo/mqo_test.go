package mqo

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/relationdb"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

// fixture builds relations R0..Rn-1 (chained by shared keys) plus a catalog.
func fixture(t *testing.T, nRels int, cardBase int) *costmodel.Model {
	t.Helper()
	return fixtureScored(t, nRels, cardBase, func(int) bool { return true })
}

// fixtureScored is fixture with a choice of which relations carry a scoring
// attribute; the others are probed (§5.1.1), which brings the
// every-query-needs-a-stream repair of plan completion into play.
func fixtureScored(t *testing.T, nRels int, cardBase int, scored func(i int) bool) *costmodel.Model {
	t.Helper()
	cat := catalog.New()
	for i := 0; i < nRels; i++ {
		s := tuple.NewSchema(rel(i),
			tuple.Column{Name: "a", Type: tuple.KindInt},
			tuple.Column{Name: "b", Type: tuple.KindInt},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: scored(i)},
		)
		rng := dist.New(uint64(i) + 5)
		var rows []*tuple.Tuple
		card := cardBase + i*100
		for r := 0; r < card; r++ {
			rows = append(rows, tuple.New(s,
				tuple.Int(int64(rng.Intn(card))),
				tuple.Int(int64(rng.Intn(card))),
				tuple.Float(rng.Float64())))
		}
		cat.AddRelation("db", relationdb.NewRelation(s, rows))
	}
	return costmodel.New(cat, costmodel.DefaultParams())
}

func rel(i int) string { return string(rune('P' + i)) }

// chain builds rel(start)(x0,x1) ⋈ rel(start+1)(x1,x2) ⋈ ...
func chain(id string, start, n int) *cq.CQ {
	atoms := make([]*cq.Atom, n)
	for i := 0; i < n; i++ {
		atoms[i] = &cq.Atom{Rel: rel(start + i), DB: "db", Args: []cq.Term{cq.V(i), cq.V(i + 1), cq.V(100 + i)}}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &cq.CQ{ID: id, UQID: "U", Atoms: atoms, Model: scoring.QSystem(0, w)}
}

func TestOptimizeSingleQueryValid(t *testing.T) {
	cm := fixture(t, 4, 300)
	q := chain("q1", 0, 4)
	res, err := Optimize([]*cq.CQ{q}, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate([]*cq.CQ{q}, res.Inputs); err != nil {
		t.Fatalf("invalid assignment: %v", err)
	}
	if res.Cost <= 0 || res.SearchNodes == 0 {
		t.Errorf("cost=%v nodes=%d", res.Cost, res.SearchNodes)
	}
}

func TestOptimizeSharedBatchValid(t *testing.T) {
	cm := fixture(t, 6, 300)
	qs := []*cq.CQ{
		chain("q1", 0, 4),
		chain("q2", 0, 3), // prefix overlap with q1
		chain("q3", 2, 4), // suffix overlap
	}
	res, err := Optimize(qs, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(qs, res.Inputs); err != nil {
		t.Fatalf("invalid shared assignment: %v", err)
	}
	// The shared prefix should be covered for q1 and q2 by a common input.
	sharedInputs := 0
	for _, in := range res.Inputs {
		if len(in.Uses) >= 2 {
			sharedInputs++
		}
	}
	if sharedInputs == 0 {
		t.Error("batch with overlapping queries produced no shared inputs")
	}
}

// Property: over random batches of random chain queries, BestPlan always
// returns a valid assignment (Definition 1) within budget.
func TestOptimizeValidityProperty(t *testing.T) {
	cm := fixture(t, 8, 250)
	rng := dist.New(99)
	for trial := 0; trial < 60; trial++ {
		nq := 1 + rng.Intn(4)
		var qs []*cq.CQ
		for i := 0; i < nq; i++ {
			start := rng.Intn(4)
			n := 2 + rng.Intn(4)
			qs = append(qs, chain(rel(start)+string(rune('0'+i))+"-q", start, n))
		}
		res, err := Optimize(qs, cm, Config{MaxCandidates: 6, SearchNodeBudget: 5000})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(qs, res.Inputs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// assignmentModuloIDs renders a result with every consumer named by its
// query body instead of its id, so two results render equal exactly when they
// are the same assignment up to renaming the queries.
func assignmentModuloIDs(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%v candidates=%d nodes=%d\n", res.Cost, res.CandidateCount, res.SearchNodes)
	for _, in := range res.Inputs {
		var uses []string
		for _, occ := range in.Uses {
			uses = append(uses, fmt.Sprintf("%s%v", occ.CQ.BodyKey(), occ.AtomOf))
		}
		sort.Strings(uses)
		fmt.Fprintf(&b, "%s %v %s <- %s\n", in.Expr.Key(), in.Mode, in.DB, strings.Join(uses, " | "))
	}
	return b.String()
}

// Property: the assignment is a function of the set of query structures.
// Posing the same bodies in another order under other ids — ids whose
// lexicographic ranking differs, as every fresh arrival of a recurring user
// query does — returns the same assignment modulo ids, at the same cost and
// after the same search. Half the relations are score-less so completion's
// stream repair, which visits queries in order and mutates shared inputs, is
// exercised; some batches hold the same body twice.
func TestOptimizePermutationInvariant(t *testing.T) {
	cm := fixtureScored(t, 8, 250, func(i int) bool { return i%2 == 0 })
	rng := dist.New(4)
	for trial := 0; trial < 40; trial++ {
		type body struct{ start, n int }
		bodies := make([]body, 2+rng.Intn(4))
		for i := range bodies {
			bodies[i] = body{rng.Intn(4), 2 + rng.Intn(4)}
			if i > 0 && rng.Intn(5) == 0 {
				bodies[i] = bodies[i-1]
			}
		}
		if trial%3 == 0 {
			// Buffered prefixes make the plans depend on catalog feedback too.
			e, _ := chain("probe", rng.Intn(4), 2).SubExpr([]int{0, 1})
			cm.Cat.RecordStreamed(e.Key(), 50+rng.Intn(200))
		}
		cfg := Config{MaxCandidates: 6, SearchNodeBudget: 5000}
		build := func(order []int, ids []string) []*cq.CQ {
			qs := make([]*cq.CQ, len(order))
			for i, bi := range order {
				qs[i] = chain(ids[bi], bodies[bi].start, bodies[bi].n)
			}
			return qs
		}
		order := make([]int, len(bodies))
		ids := make([]string, len(bodies))
		for i := range bodies {
			order[i] = i
			ids[i] = fmt.Sprintf("UQ1.CQ%d", i+1)
		}
		base, err := Optimize(build(order, ids), cm, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := assignmentModuloIDs(base)
		for variant := 0; variant < 4; variant++ {
			for i := len(order) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			for i := range ids {
				ids[i] = fmt.Sprintf("UQ%d.CQ%d", 2+variant, rng.Intn(1000)*10+i) // unique, ranked at random
			}
			qs := build(order, ids)
			res, err := Optimize(qs, cm, cfg)
			if err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, variant, err)
			}
			if err := Validate(qs, res.Inputs); err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, variant, err)
			}
			if got := assignmentModuloIDs(res); got != want {
				t.Fatalf("trial %d variant %d: order %v ids %v gives\n%s\nthe base order gives\n%s", trial, variant, order, ids, got, want)
			}
		}
	}
}

func TestOptimizeEmptyBatch(t *testing.T) {
	cm := fixture(t, 2, 100)
	if _, err := Optimize(nil, cm, Config{}); err == nil {
		t.Error("empty batch should error")
	}
}

func TestReuseDiscountSteersPlan(t *testing.T) {
	cm := fixture(t, 4, 400)
	q := chain("q1", 0, 3)
	res1, err := Optimize([]*cq.CQ{q}, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Mark every chosen stream as fully buffered; cost must drop.
	for _, in := range res1.Inputs {
		if in.Mode == costmodel.Stream {
			cm.Cat.RecordStreamed(in.Expr.Key(), 1<<20)
		}
	}
	res2, err := Optimize([]*cq.CQ{q}, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost >= res1.Cost {
		t.Errorf("buffered state did not reduce plan cost: %v -> %v", res1.Cost, res2.Cost)
	}
}

func TestValidateCatchesBadAssignments(t *testing.T) {
	cm := fixture(t, 3, 200)
	q := chain("q1", 0, 3)
	res, err := Optimize([]*cq.CQ{q}, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Remove one input's use: should fail coverage.
	var victim string
	for _, in := range res.Inputs {
		if _, ok := in.Uses[q.ID]; ok {
			victim = in.Expr.Key()
			delete(in.Uses, q.ID)
			break
		}
	}
	if err := Validate([]*cq.CQ{q}, res.Inputs); err == nil {
		t.Errorf("dropped coverage of %s not detected", victim)
	}
}

func TestMaxCandidatesCap(t *testing.T) {
	cm := fixture(t, 8, 250)
	qs := []*cq.CQ{chain("q1", 0, 5), chain("q2", 0, 5), chain("q3", 1, 5)}
	res, err := Optimize(qs, cm, Config{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, in := range res.Inputs {
		if !in.Expr.SingleAtom() {
			multi++
		}
	}
	if multi > 3 {
		t.Errorf("plan uses %d multi-atom inputs despite cap 3", multi)
	}
}

// TestRunnerUpIsTheNextAssignment feeds priced leaves to the certificate in
// several orders. The runner-up is the least cost of any assignment other
// than the cheapest: a second leaf with the cheapest assignment leaves it
// alone, a distinct assignment at an equal cost sets it.
func TestRunnerUpIsTheNextAssignment(t *testing.T) {
	q := chain("q1", 0, 2)
	leaf := func(atom int) []*costmodel.Input { // built afresh: equal, not identical
		e, mapping := q.SubExpr([]int{atom})
		return []*costmodel.Input{{Expr: e, Mode: costmodel.Probe, DB: "db",
			Uses: map[string]*cq.ExprOccurrence{q.ID: {CQ: q, AtomOf: mapping}}}}
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		atoms []int
		costs []float64
		want  float64
	}{
		{[]int{0}, []float64{10}, inf},
		{[]int{0, 0}, []float64{10, 10}, inf},
		{[]int{0, 1}, []float64{10, 10}, 10},
		{[]int{0, 1, 0}, []float64{10, 12, 10}, 12},
		{[]int{1, 0}, []float64{12, 10}, 12},
		{[]int{1, 0, 1}, []float64{12, 10, 12}, 12},
	} {
		s := &searcher{runnerUp: inf, depths: map[string]depthRange{}, costScratch: costmodel.NewScratch()}
		for i, a := range tc.atoms {
			s.notePriced(leaf(a), tc.costs[i])
		}
		if s.runnerUp != tc.want {
			t.Errorf("leaves %v at %v: runner-up %v, want %v", tc.atoms, tc.costs, s.runnerUp, tc.want)
		}
	}
}

// TestCertificateShape checks Optimize's certificate on a shared batch: the
// runner-up is no cheaper than the plan, and the depth ranges are in key
// order with 0 ≤ Min ≤ Max, Min set only where the plan itself streams.
func TestCertificateShape(t *testing.T) {
	cm := fixture(t, 5, 300)
	qs := []*cq.CQ{chain("q1", 0, 3), chain("q2", 1, 3), chain("q3", 0, 4)}
	res, err := Optimize(qs, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.RunnerUp >= res.Cost) || len(res.Depths) == 0 {
		t.Fatalf("cost %v, runner-up %v, %d depth ranges", res.Cost, res.RunnerUp, len(res.Depths))
	}
	streamed := map[string]bool{}
	for _, in := range res.Inputs {
		streamed[in.Expr.Key()] = in.Mode == costmodel.Stream
	}
	for i, d := range res.Depths {
		if i > 0 && res.Depths[i-1].Key >= d.Key {
			t.Errorf("depths out of key order at %s", d.Key)
		}
		if d.Min < 0 || d.Min > d.Max || d.Max <= 0 || d.Min > 0 && !streamed[d.Key] {
			t.Errorf("%s: depth range [%v, %v]", d.Key, d.Min, d.Max)
		}
	}
}
