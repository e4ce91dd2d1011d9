package atc_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/relationdb"
	"repro/internal/remotedb"
	"repro/internal/scoring"
	"repro/internal/simclock"
	"repro/internal/tuple"
)

// multiHarness builds nStars independent star databases (A<i> ⋈ B<i> ⋈ C<i>)
// in one store: queries on different stars share no relation.
type multiHarness struct {
	env  *operator.Env
	ctrl *atc.ATC
	mgr  *qsm.Manager
}

func newMultiHarness(t *testing.T, seed uint64, nStars int) *multiHarness {
	t.Helper()
	rng := dist.New(seed)
	store := relationdb.NewStore("db")
	cat := catalog.New()
	for s := 0; s < nStars; s++ {
		sa := tuple.NewSchema(fmt.Sprintf("A%d", s),
			tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
			tuple.Column{Name: "term", Type: tuple.KindString},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
		)
		var rows []*tuple.Tuple
		nA := 24 + s*4
		for i := 0; i < nA; i++ {
			term := "x"
			if rng.Intn(2) == 1 {
				term = "y"
			}
			rows = append(rows, tuple.New(sa, tuple.Int(int64(i)), tuple.String(term), tuple.Float(0.1+0.9*rng.Float64())))
		}
		relA := relationdb.NewRelation(sa, rows)
		store.Put(relA)
		cat.AddRelation("db", relA)

		sb := tuple.NewSchema(fmt.Sprintf("B%d", s),
			tuple.Column{Name: "aid", Type: tuple.KindInt},
			tuple.Column{Name: "cid", Type: tuple.KindInt},
			tuple.Column{Name: "sim", Type: tuple.KindFloat, Score: true},
		)
		rows = nil
		nC := 20 + s*3
		for i := 0; i < 60+s*8; i++ {
			rows = append(rows, tuple.New(sb,
				tuple.Int(int64(rng.Intn(nA))), tuple.Int(int64(rng.Intn(nC))), tuple.Float(0.1+0.9*rng.Float64())))
		}
		relB := relationdb.NewRelation(sb, rows)
		store.Put(relB)
		cat.AddRelation("db", relB)

		sc := tuple.NewSchema(fmt.Sprintf("C%d", s),
			tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
		)
		rows = nil
		for i := 0; i < nC; i++ {
			rows = append(rows, tuple.New(sc, tuple.Int(int64(i)), tuple.Float(0.1+0.9*rng.Float64())))
		}
		relC := relationdb.NewRelation(sc, rows)
		store.Put(relC)
		cat.AddRelation("db", relC)
	}

	env := &operator.Env{
		Clock:   simclock.NewVirtual(0),
		Delays:  simclock.DefaultDelays(dist.New(seed + 9)),
		Metrics: &metrics.Counters{},
	}
	graph := plangraph.New("")
	ctrl := atc.New(graph, env, remotedb.NewFleet(remotedb.New(store)))
	mgr := qsm.New(graph, ctrl, cat, costmodel.New(cat, costmodel.DefaultParams()), qsm.ShareAll)
	mgr.Unit = qsm.UnitUQ
	return &multiHarness{env: env, ctrl: ctrl, mgr: mgr}
}

// uqOn builds one user query with one conjunctive query on star s.
func uqOn(id string, k int, s int) *cq.UQ {
	model := scoring.QSystem(0.5, []float64{1, 1, 0.9})
	q := &cq.CQ{
		ID:   id + "-cq0",
		UQID: "U-" + id + "-cq0",
		Atoms: []*cq.Atom{
			{Rel: fmt.Sprintf("A%d", s), DB: "db", Args: []cq.Term{cq.V(0), cq.C(tuple.String("x")), cq.V(11)}},
			{Rel: fmt.Sprintf("B%d", s), DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(12)}},
			{Rel: fmt.Sprintf("C%d", s), DB: "db", Args: []cq.Term{cq.V(1), cq.V(13)}},
		},
		Model: model,
	}
	return &cq.UQ{ID: id, K: k, CQs: []*cq.CQ{q}}
}

func (h *multiHarness) admit(t *testing.T, uqs ...*cq.UQ) {
	t.Helper()
	var subs []batcher.Submission
	maxK := 1
	for _, uq := range uqs {
		subs = append(subs, batcher.Submission{At: h.env.Clock.Now(), UQ: uq})
		if uq.K > maxK {
			maxK = uq.K
		}
	}
	if _, err := h.mgr.Admit(subs, mqo.Config{K: maxK}); err != nil {
		t.Fatalf("admit: %v", err)
	}
}

// TestNonConvergenceFailsMergeNotProcess pins the failure path: a scheduling
// round that exceeds its step bound must fail that merge with an error —
// not panic — leave the controller serviceable, and not poison later
// queries.
func TestNonConvergenceFailsMergeNotProcess(t *testing.T) {
	h := newMultiHarness(t, 7, 2)
	h.ctrl.SetDriveBound(1) // nothing real converges in one step
	h.admit(t, uqOn("U1", 5, 0), uqOn("U2", 5, 1))
	for h.ctrl.RunRound() {
	}
	for _, id := range []string{"U1", "U2"} {
		m := h.ctrl.MergeByUQ(id)
		if m == nil || !m.Done {
			t.Fatalf("%s not done", id)
		}
		if m.Err == nil || !strings.Contains(m.Err.Error(), "did not converge") {
			t.Fatalf("%s err = %v, want non-convergence", id, m.Err)
		}
		h.ctrl.Forget(id)
	}
	if !h.ctrl.AllDone() {
		t.Fatal("controller stuck")
	}

	// Restore the bound; fresh queries must run to a clean result.
	h.ctrl.SetDriveBound(0)
	h.admit(t, uqOn("U3", 5, 0))
	for h.ctrl.RunRound() {
	}
	m := h.ctrl.MergeByUQ("U3")
	if m == nil || !m.Done || m.Err != nil {
		t.Fatalf("recovery query failed: %+v", m)
	}
	if len(m.RM.Results()) == 0 {
		t.Fatal("recovery query produced no results")
	}
	if s := m.RM.Results()[0].Score; math.IsNaN(s) || s <= 0 {
		t.Fatalf("bad top score %v", s)
	}
}
