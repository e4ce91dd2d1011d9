package catalog

import (
	"math"
	"testing"

	"repro/internal/cq"
	"repro/internal/relationdb"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

func buildCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	a := tuple.NewSchema("A",
		tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
		tuple.Column{Name: "term", Type: tuple.KindString},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	var rows []*tuple.Tuple
	terms := []string{"x", "y"}
	for i := 0; i < 100; i++ {
		rows = append(rows, tuple.New(a, tuple.Int(int64(i)), tuple.String(terms[i%2]), tuple.Float(1/float64(i+1))))
	}
	c.AddRelation("db", relationdb.NewRelation(a, rows))

	b := tuple.NewSchema("B",
		tuple.Column{Name: "aid", Type: tuple.KindInt},
		tuple.Column{Name: "sim", Type: tuple.KindFloat, Score: true},
	)
	rows = nil
	for i := 0; i < 200; i++ {
		rows = append(rows, tuple.New(b, tuple.Int(int64(i%50)), tuple.Float(1/float64(i+1))))
	}
	c.AddRelation("db", relationdb.NewRelation(b, rows))
	return c
}

func joinAB() *cq.CQ {
	return &cq.CQ{ID: "q", Atoms: []*cq.Atom{
		{Rel: "A", DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(2)}},
		{Rel: "B", DB: "db", Args: []cq.Term{cq.V(0), cq.V(3)}},
	}, Model: scoring.Discover(2)}
}

func TestRelationStats(t *testing.T) {
	c := buildCatalog(t)
	st := c.MustRelation("A")
	if st.Card != 100 || !st.HasScore || st.DB != "db" {
		t.Errorf("stats: %+v", st)
	}
	if st.Distinct[1] != 2 {
		t.Errorf("distinct(term) = %v", st.Distinct[1])
	}
	if st.MaxScore != 1 {
		t.Errorf("max score = %v", st.MaxScore)
	}
	if _, err := c.Relation("missing"); err == nil {
		t.Error("missing relation should error")
	}
	if got := c.Relations(); len(got) != 2 || got[0] != "A" {
		t.Errorf("relations = %v", got)
	}
}

func TestEstimateCardJoin(t *testing.T) {
	c := buildCatalog(t)
	q := joinAB()
	e, _ := q.SubExpr([]int{0, 1})
	// card(A)*card(B)/max(distinct) = 100*200/100 = 200.
	if got := c.EstimateCard(e); math.Abs(got-200) > 1e-9 {
		t.Errorf("join estimate = %v, want 200", got)
	}
	// With a selection on term: /2. A fresh query — atoms are immutable once
	// canonicalized (CQ.SubExpr memoizes per index set).
	q2 := joinAB()
	q2.Atoms[0].Args[1] = cq.C(tuple.String("x"))
	e2, _ := q2.SubExpr([]int{0, 1})
	if got := c.EstimateCard(e2); math.Abs(got-100) > 1e-9 {
		t.Errorf("selected estimate = %v, want 100", got)
	}
}

func TestEstimateCardObservationWins(t *testing.T) {
	c := buildCatalog(t)
	e, _ := joinAB().SubExpr([]int{0, 1})
	est := c.EstimateCard(e)
	c.RecordExprCard(e.Key(), 42)
	if got := c.EstimateCard(e); got != 42 {
		t.Errorf("observed card ignored: %v (estimate was %v)", got, est)
	}
	if card, ok := c.ObservedCard(e.Key()); !ok || card != 42 {
		t.Errorf("ObservedCard = %v, %v after an observation of 42", card, ok)
	}
	if _, ok := c.Fork().ObservedCard(e.Key()); ok {
		t.Error("a fork sees its parent's observation")
	}
}

func TestEstimateCacheConsistent(t *testing.T) {
	c := buildCatalog(t)
	e, _ := joinAB().SubExpr([]int{0, 1})
	a := c.EstimateCard(e)
	b := c.EstimateCard(e) // cached path
	if a != b {
		t.Errorf("cached estimate differs: %v vs %v", a, b)
	}
}

func TestStreamedAccounting(t *testing.T) {
	c := buildCatalog(t)
	c.RecordStreamed("k", 10)
	c.RecordStreamed("k", 5) // lower never shrinks
	if c.StreamedSoFar("k") != 10 {
		t.Errorf("streamed = %d", c.StreamedSoFar("k"))
	}
	c.RecordStreamed("k", 20)
	if c.StreamedSoFar("k") != 20 {
		t.Errorf("streamed = %d", c.StreamedSoFar("k"))
	}
	c.ForgetStreamed("k")
	if c.StreamedSoFar("k") != 0 {
		t.Error("forget failed")
	}
}

func TestForkIsolation(t *testing.T) {
	c := buildCatalog(t)
	f1, f2 := c.Fork(), c.Fork()
	f1.RecordStreamed("x", 9)
	if f2.StreamedSoFar("x") != 0 || c.StreamedSoFar("x") != 0 {
		t.Error("fork leaked reuse accounting")
	}
	// Shared stats still visible.
	if f1.MustRelation("A").Card != 100 || f2.MustRelation("B").Card != 200 {
		t.Error("forks lost relation stats")
	}
}

// TestFeedbackGeneration pins what moves Gen: each feedback write that
// changes a value the catalog returns, and no other write.
func TestFeedbackGeneration(t *testing.T) {
	c := buildCatalog(t)
	for _, step := range []struct {
		what  string
		write func(c *Catalog)
		bumps bool
	}{
		{"first count", func(c *Catalog) { c.RecordStreamed("k", 10) }, true},
		{"higher count", func(c *Catalog) { c.RecordStreamed("k", 20) }, true},
		{"lower count", func(c *Catalog) { c.RecordStreamed("k", 5) }, false},
		{"equal count", func(c *Catalog) { c.RecordStreamed("k", 20) }, false},
		{"zero count of an absent key", func(c *Catalog) { c.RecordStreamed("j", 0) }, false},
		{"forget a present key", func(c *Catalog) { c.ForgetStreamed("k") }, true},
		{"forget an absent key", func(c *Catalog) { c.ForgetStreamed("k") }, false},
		{"first card", func(c *Catalog) { c.RecordExprCard("e", 7) }, true},
		{"same card", func(c *Catalog) { c.RecordExprCard("e", 7) }, false},
		{"changed card", func(c *Catalog) { c.RecordExprCard("e", 8) }, true},
		{"zero card of a new key", func(c *Catalog) { c.RecordExprCard("z", 0) }, true},
		{"an estimate", func(c *Catalog) {
			e, _ := joinAB().SubExpr([]int{0, 1})
			c.EstimateCard(e)
		}, false},
	} {
		before := c.Gen()
		step.write(c)
		if moved := c.Gen() != before; moved != step.bumps {
			t.Fatalf("%s: generation %d -> %d, want a bump: %v", step.what, before, c.Gen(), step.bumps)
		}
	}
	f := c.Fork()
	if f.Gen() != 0 {
		t.Fatalf("a fork starts at generation %d, want 0", f.Gen())
	}
	before := c.Gen()
	f.RecordStreamed("k", 1)
	if f.Gen() != 1 || c.Gen() != before {
		t.Fatalf("a fork's write moved the fork to %d and its parent %d -> %d; want 1 and unchanged", f.Gen(), before, c.Gen())
	}
}

func TestTopKDepth(t *testing.T) {
	c := buildCatalog(t)
	e, _ := joinAB().SubExpr([]int{1})
	d := c.TopKDepth(e, 50, 2)
	if d < 25-1e-9 || d > 200 {
		t.Errorf("depth = %v", d)
	}
	if got := c.TopKDepth(e, 50, 0); got <= 0 {
		t.Errorf("zero-fanout depth = %v", got)
	}
}

func TestMaxScoreOf(t *testing.T) {
	c := buildCatalog(t)
	if c.MaxScoreOf("A") != 1 {
		t.Error("max score of A")
	}
	if c.MaxScoreOf("missing") != tuple.NeutralScore {
		t.Error("unknown relation should report neutral score")
	}
}

func TestExpensiveJoin(t *testing.T) {
	c := New()
	// Two relations joining on very low-distinct columns.
	s1 := tuple.NewSchema("X", tuple.Column{Name: "g", Type: tuple.KindInt})
	s2 := tuple.NewSchema("Y", tuple.Column{Name: "g", Type: tuple.KindInt})
	var r1, r2 []*tuple.Tuple
	for i := 0; i < 100; i++ {
		r1 = append(r1, tuple.New(s1, tuple.Int(int64(i%3))))
		r2 = append(r2, tuple.New(s2, tuple.Int(int64(i%3))))
	}
	c.AddRelation("db", relationdb.NewRelation(s1, r1))
	c.AddRelation("db", relationdb.NewRelation(s2, r2))
	q := &cq.CQ{ID: "e", Atoms: []*cq.Atom{
		{Rel: "X", DB: "db", Args: []cq.Term{cq.V(0)}},
		{Rel: "Y", DB: "db", Args: []cq.Term{cq.V(0)}},
	}, Model: scoring.Discover(2)}
	e, _ := q.SubExpr([]int{0, 1})
	if !c.ExpensiveJoin(e) {
		t.Error("many-many join should be flagged expensive")
	}
}
