package qsm_test

import (
	"math"
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

type rig struct {
	env   *operator.Env
	graph *plangraph.Graph
	ctrl  *atc.ATC
	mgr   *qsm.Manager
	cat   *catalog.Catalog
}

func newRig(t *testing.T, mode qsm.ShareMode, budget int) *rig {
	t.Helper()
	rng := dist.New(31)
	store := relationdb.NewStore("db")
	cat := catalog.New()
	for _, name := range []string{"A", "B", "C"} {
		s := tuple.NewSchema(name,
			tuple.Column{Name: "a", Type: tuple.KindInt},
			tuple.Column{Name: "b", Type: tuple.KindInt},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
		)
		var rows []*tuple.Tuple
		for i := 0; i < 200; i++ {
			rows = append(rows, tuple.New(s, tuple.Int(int64(rng.Intn(60))), tuple.Int(int64(rng.Intn(60))), tuple.Float(0.2+0.8*rng.Float64())))
		}
		rel := relationdb.NewRelation(s, rows)
		store.Put(rel)
		cat.AddRelation("db", rel)
	}
	env := &operator.Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(5)), Metrics: &metrics.Counters{}}
	graph := plangraph.New("")
	ctrl := atc.New(graph, env, remotedb.NewFleet(remotedb.New(store)))
	mgr := qsm.New(graph, ctrl, cat, costmodel.New(cat, costmodel.DefaultParams()), mode)
	mgr.MemoryBudget = budget
	return &rig{env: env, graph: graph, ctrl: ctrl, mgr: mgr, cat: cat}
}

func chainQ(id string, rels ...string) *cq.CQ {
	atoms := make([]*cq.Atom, len(rels))
	for i, r := range rels {
		atoms[i] = &cq.Atom{Rel: r, DB: "db", Args: []cq.Term{cq.V(i), cq.V(i + 1), cq.V(40 + i)}}
	}
	w := make([]float64, len(rels))
	for i := range w {
		w[i] = 1
	}
	return &cq.CQ{ID: id, UQID: "U-" + id, Atoms: atoms, Model: scoring.QSystem(0, w)}
}

func (r *rig) runUQ(t *testing.T, uq *cq.UQ) []operator.Result {
	t.Helper()
	rep, err := r.mgr.Admit([]batcher.Submission{{At: r.env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	_ = rep
	for r.ctrl.RunRound() {
	}
	r.mgr.SyncCatalog()
	for _, m := range r.ctrl.Merges() {
		if m.RM.UQ.ID == uq.ID {
			return m.RM.Results()
		}
	}
	t.Fatal("merge missing")
	return nil
}

func TestAdmitModesProduceSameAnswers(t *testing.T) {
	var ref []operator.Result
	for _, mode := range []qsm.ShareMode{qsm.ShareNone, qsm.ShareAll} {
		r := newRig(t, mode, 0)
		uq := &cq.UQ{ID: "U1", K: 12, CQs: []*cq.CQ{
			chainQ("U1.CQ1", "A", "B"),
			chainQ("U1.CQ2", "A", "B", "C"),
		}}
		got := r.runUQ(t, uq)
		if len(got) == 0 {
			t.Fatalf("%v: no results", mode)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%v: %d results vs %d", mode, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Score-ref[i].Score) > 1e-9 {
				t.Fatalf("%v: rank %d differs", mode, i)
			}
		}
	}
}

func TestShareModeString(t *testing.T) {
	if qsm.ShareNone.String() != "atc-cq" || qsm.ShareAll.String() != "atc-full" {
		t.Error("mode strings")
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	r := newRig(t, qsm.ShareAll, 50) // tiny budget in rows
	uq1 := &cq.UQ{ID: "U1", K: 10, CQs: []*cq.CQ{chainQ("U1.CQ1", "A", "B")}}
	r.runUQ(t, uq1)
	// Trigger enforcement through the next admission.
	uq2 := &cq.UQ{ID: "U2", K: 10, CQs: []*cq.CQ{chainQ("U2.CQ1", "B", "C")}}
	r.runUQ(t, uq2)
	r.mgr.EnforceBudget()
	if r.mgr.Evictions() == 0 {
		t.Errorf("no evictions despite budget 50 (state=%d rows)", r.mgr.StateSize())
	}
	// Evicted state must not break subsequent queries.
	uq3 := &cq.UQ{ID: "U3", K: 10, CQs: []*cq.CQ{chainQ("U3.CQ1", "A", "B")}}
	got := r.runUQ(t, uq3)
	cold := newRig(t, qsm.ShareAll, 0)
	want := cold.runUQ(t, &cq.UQ{ID: "U3", K: 10, CQs: []*cq.CQ{chainQ("U3.CQ1", "A", "B")}})
	if len(got) != len(want) {
		t.Fatalf("post-eviction results %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("post-eviction rank %d differs", i)
		}
	}
}

func TestAdmitEmptyBatch(t *testing.T) {
	r := newRig(t, qsm.ShareAll, 0)
	if _, err := r.mgr.Admit(nil, mqo.Config{}); err == nil {
		t.Error("empty batch should error")
	}
}

func TestAdmitReportFields(t *testing.T) {
	r := newRig(t, qsm.ShareAll, 0)
	uq := &cq.UQ{ID: "U1", K: 5, CQs: []*cq.CQ{chainQ("U1.CQ1", "A", "B")}}
	rep, err := r.mgr.Admit([]batcher.Submission{{At: 0, UQ: uq}}, mqo.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || len(rep.CandidatesPerGroup) != 1 || rep.OptimizeWall <= 0 {
		t.Errorf("report = %+v", rep)
	}
	for r.ctrl.RunRound() {
	}
	// Second admission bumps the epoch.
	uq2 := &cq.UQ{ID: "U2", K: 5, CQs: []*cq.CQ{chainQ("U2.CQ1", "A", "B")}}
	rep2, err := r.mgr.Admit([]batcher.Submission{{At: 0, UQ: uq2}}, mqo.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 2 {
		t.Errorf("epoch = %d", rep2.Epoch)
	}
}

func TestSyncCatalogRecordsStreams(t *testing.T) {
	r := newRig(t, qsm.ShareAll, 0)
	uq := &cq.UQ{ID: "U1", K: 1000000, CQs: []*cq.CQ{chainQ("U1.CQ1", "A", "B")}}
	r.runUQ(t, uq)
	// Exhausted streams must have recorded positions in the catalog.
	recorded := false
	for _, n := range r.graph.Nodes() {
		if n.Kind == plangraph.SourceStream && r.cat.StreamedSoFar(n.Expr.Key()) > 0 {
			recorded = true
		}
	}
	if !recorded {
		t.Error("SyncCatalog recorded no stream positions")
	}
}
