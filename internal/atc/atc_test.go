package atc_test

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

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

// harness builds a random three-relation star database A ⋈ B ⋈ C plus the
// full middleware stack, and runs queries through qsm+atc.
type harness struct {
	fleet *remotedb.Fleet
	cat   *catalog.Catalog
	env   *operator.Env
	graph *plangraph.Graph
	ctrl  *atc.ATC
	mgr   *qsm.Manager
}

func newHarness(t testing.TB, seed uint64, nA, nB, nC int, withScoreless bool) *harness {
	t.Helper()
	return newStarHarness(t, seed, nA, nB, nC, withScoreless, false)
}

// newStarHarness is newHarness with, when split is set, each relation in a
// database of its own ("dbA", "dbB", "dbC"): no join pushes down to a
// source, so the middleware joins the streams in m-join nodes.
func newStarHarness(t testing.TB, seed uint64, nA, nB, nC int, withScoreless, split bool) *harness {
	t.Helper()
	rng := dist.New(seed)
	shared := relationdb.NewStore("db")
	var dbs []*remotedb.DB
	if !split {
		dbs = append(dbs, remotedb.New(shared))
	}
	cat := catalog.New()
	put := func(rel *relationdb.Relation) {
		store := shared
		if split {
			store = relationdb.NewStore(starDB(rel.Schema().Name(), true))
			dbs = append(dbs, remotedb.New(store))
		}
		store.Put(rel)
		cat.AddRelation(store.Name(), rel)
	}

	sa := tuple.NewSchema("A",
		tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
		tuple.Column{Name: "term", Type: tuple.KindString},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	terms := []string{"x", "y"}
	var rows []*tuple.Tuple
	for i := 0; i < nA; i++ {
		rows = append(rows, tuple.New(sa, tuple.Int(int64(i)), tuple.String(terms[rng.Intn(2)]), tuple.Float(0.1+0.9*rng.Float64())))
	}
	relA := relationdb.NewRelation(sa, rows)
	put(relA)

	var sb *tuple.Schema
	if withScoreless {
		sb = tuple.NewSchema("B",
			tuple.Column{Name: "aid", Type: tuple.KindInt},
			tuple.Column{Name: "cid", Type: tuple.KindInt},
		)
	} else {
		sb = tuple.NewSchema("B",
			tuple.Column{Name: "aid", Type: tuple.KindInt},
			tuple.Column{Name: "cid", Type: tuple.KindInt},
			tuple.Column{Name: "sim", Type: tuple.KindFloat, Score: true},
		)
	}
	rows = nil
	for i := 0; i < nB; i++ {
		vals := []tuple.Value{tuple.Int(int64(rng.Intn(nA))), tuple.Int(int64(rng.Intn(nC)))}
		if !withScoreless {
			vals = append(vals, tuple.Float(0.1+0.9*rng.Float64()))
		}
		rows = append(rows, tuple.New(sb, vals...))
	}
	relB := relationdb.NewRelation(sb, rows)
	put(relB)

	sc := tuple.NewSchema("C",
		tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	rows = nil
	for i := 0; i < nC; i++ {
		rows = append(rows, tuple.New(sc, tuple.Int(int64(i)), tuple.Float(0.1+0.9*rng.Float64())))
	}
	relC := relationdb.NewRelation(sc, rows)
	put(relC)

	env := &operator.Env{
		Clock:   simclock.NewVirtual(0),
		Delays:  simclock.DefaultDelays(dist.New(seed + 9)),
		Metrics: &metrics.Counters{},
	}
	graph := plangraph.New("")
	ctrl := atc.New(graph, env, remotedb.NewFleet(dbs...))
	cm := costmodel.New(cat, costmodel.DefaultParams())
	mgr := qsm.New(graph, ctrl, cat, cm, qsm.ShareAll)
	return &harness{fleet: nil, cat: cat, env: env, graph: graph, ctrl: ctrl, mgr: mgr}
}

// starCQ builds A(id,sel?,_) ⋈ B(id,cid) ⋈ C(cid,_) with the given model.
func starCQ(id string, sel string, model *scoring.Model, withScoreless bool) *cq.CQ {
	termArg := cq.V(10)
	if sel != "" {
		termArg = cq.C(tuple.String(sel))
	}
	bArgs := []cq.Term{cq.V(0), cq.V(1)}
	if !withScoreless {
		bArgs = append(bArgs, cq.V(12))
	}
	return &cq.CQ{
		ID:   id,
		UQID: "U-" + id,
		Atoms: []*cq.Atom{
			{Rel: "A", DB: "db", Args: []cq.Term{cq.V(0), termArg, cq.V(11)}},
			{Rel: "B", DB: "db", Args: bArgs},
			{Rel: "C", DB: "db", Args: []cq.Term{cq.V(1), cq.V(13)}},
		},
		Model: model,
	}
}

// starDB names the database a star relation lives in.
func starDB(rel string, split bool) string {
	if split {
		return "db" + rel
	}
	return "db"
}

// run submits one UQ and drives it to completion.
func (h *harness) run(t *testing.T, uq *cq.UQ) []operator.Result {
	t.Helper()
	h.graft(t, uq)
	return h.finish(t, uq.ID)
}

// bruteTopK computes the reference top-k via exhaustive join + sort.
func bruteTopK(h *harness, q *cq.CQ, k int, store *relationdb.Store) []float64 {
	a := store.MustRelation("A")
	b := store.MustRelation("B")
	c := store.MustRelation("C")
	sel := ""
	if q.Atoms[0].Args[1].IsConst() {
		sel = q.Atoms[0].Args[1].Const.AsString()
	}
	var scores []float64
	for _, rb := range b.Rows() {
		for _, ra := range a.Lookup(0, rb.Val(0)) {
			if sel != "" && ra.Val(1).AsString() != sel {
				continue
			}
			for _, rc := range c.Lookup(0, rb.Val(1)) {
				scores = append(scores, q.Model.Score([]float64{ra.Score(), rb.Score(), rc.Score()}))
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// TestTopKMatchesBruteForce is the core correctness property: for random
// databases, random scoring models and both source modes (streamed and
// probed B), the pipeline's top-k equals exhaustive evaluation.
func TestTopKMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(100 + trial)
		withScoreless := trial%2 == 0
		nA, nB, nC := 30+trial*5, 80+trial*10, 25+trial*3

		var model *scoring.Model
		switch trial % 3 {
		case 0:
			model = scoring.QSystem(0.5, []float64{1, 1, 0.9})
		case 1:
			model = scoring.Discover(3)
		default:
			model = scoring.BANKS(0.7, []float64{1, 0.8, 1.2}, 0.4)
		}
		sel := ""
		if trial%4 < 2 {
			sel = "x"
		}
		k := 5 + trial*3

		// Rebuild the same store for the brute-force reference.
		ref := newHarness(t, seed, nA, nB, nC, withScoreless)
		q := starCQ(fmt.Sprintf("CQ%d", trial), sel, model, withScoreless)
		uq := &cq.UQ{ID: "U-" + q.ID, K: k, CQs: []*cq.CQ{q}}
		got := ref.run(t, uq)

		// Extract the reference store back out of the harness's controller
		// is awkward; rebuild data identically instead.
		h2 := newHarness(t, seed, nA, nB, nC, withScoreless)
		store := storeOf(t, h2)
		want := bruteTopK(h2, q, k, store)

		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i]) > 1e-9 {
				t.Fatalf("trial %d: rank %d score %v, want %v", trial, i+1, got[i].Score, want[i])
			}
			if i > 0 && got[i].Score > got[i-1].Score+1e-12 {
				t.Fatalf("trial %d: results out of order at %d", trial, i)
			}
		}
	}
}

// storeOf rebuilds the harness's store (the harness hides it; data generation
// is deterministic by seed so an identical copy suffices for reference
// computations — this helper just re-derives it).
func storeOf(t *testing.T, h *harness) *relationdb.Store {
	t.Helper()
	// The harness registered stats in its catalog; rebuild a store from the
	// catalog's schemas is impossible (no rows). Instead the harness keeps
	// the fleet inside the controller; easiest is to re-run generation. To
	// avoid drift, newHarness is deterministic — so capture via the exported
	// fleet on the controller.
	return h.ctrl.Fleet.MustDB("db").Store()
}

// TestSharedSubexpressionAgreement: two users with different scoring models
// share subexpressions; both must get the same answers as isolated runs.
func TestSharedSubexpressionAgreement(t *testing.T) {
	seed := uint64(42)
	q1 := starCQ("CQ1", "x", scoring.QSystem(0.2, []float64{1, 1, 1}), false)
	q2 := starCQ("CQ2", "x", scoring.Discover(3), false)
	q2.UQID = "U-CQ2"

	// Shared run: both user queries admitted together.
	shared := newHarness(t, seed, 40, 120, 30, false)
	uq1 := &cq.UQ{ID: "U-CQ1", K: 10, CQs: []*cq.CQ{q1}}
	uq2 := &cq.UQ{ID: "U-CQ2", K: 10, CQs: []*cq.CQ{q2}}
	_, err := shared.mgr.Admit([]batcher.Submission{
		{At: 0, UQ: uq1}, {At: 0, UQ: uq2},
	}, mqo.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for shared.ctrl.RunRound() {
	}
	sharedRes := map[string][]operator.Result{}
	for _, m := range shared.ctrl.Merges() {
		sharedRes[m.RM.UQ.ID] = m.RM.Results()
	}

	// Isolated runs.
	for _, uq := range []*cq.UQ{uq1, uq2} {
		solo := newHarness(t, seed, 40, 120, 30, false)
		cp := uq.CQs[0].Clone()
		cp.ID += "-solo"
		soloUQ := &cq.UQ{ID: uq.ID + "-solo", K: uq.K, CQs: []*cq.CQ{cp}}
		got := solo.run(t, soloUQ)
		want := sharedRes[uq.ID]
		if len(got) != len(want) {
			t.Fatalf("%s: isolated %d results vs shared %d", uq.ID, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("%s: rank %d isolated %v vs shared %v", uq.ID, i, got[i].Score, want[i].Score)
			}
			if got[i].Row.Identity() != want[i].Row.Identity() {
				t.Fatalf("%s: rank %d rows differ", uq.ID, i)
			}
		}
	}
}

// TestGraftReuseEquivalence: a query admitted into a warm graph (after other
// queries ran) must return exactly what it returns cold, while consuming
// fewer source tuples.
func TestGraftReuseEquivalence(t *testing.T) {
	seed := uint64(7)
	warm := newHarness(t, seed, 50, 150, 40, false)
	first := starCQ("CQ1", "", scoring.QSystem(0.1, []float64{1, 1, 1}), false)
	warm.run(t, &cq.UQ{ID: "U-CQ1", K: 15, CQs: []*cq.CQ{first}})
	consumedAfterFirst := warm.env.Metrics.Snapshot().TuplesConsumed()

	// The same structure under a different user's scoring coefficients — the
	// §2.2 scenario; its plan matches the warm graph node for node.
	second := starCQ("CQ2", "", scoring.QSystem(0.3, []float64{0.9, 1, 1}), false)
	warm.env.Clock.Advance(time.Second)
	gotWarm := warm.run(t, &cq.UQ{ID: "U-CQ2", K: 15, CQs: []*cq.CQ{second}})
	warmDelta := warm.env.Metrics.Snapshot().TuplesConsumed() - consumedAfterFirst

	cold := newHarness(t, seed, 50, 150, 40, false)
	secondCold := starCQ("CQ2", "", scoring.QSystem(0.3, []float64{0.9, 1, 1}), false)
	gotCold := cold.run(t, &cq.UQ{ID: "U-CQ2", K: 15, CQs: []*cq.CQ{secondCold}})
	coldTotal := cold.env.Metrics.Snapshot().TuplesConsumed()

	if len(gotWarm) != len(gotCold) {
		t.Fatalf("warm %d results vs cold %d", len(gotWarm), len(gotCold))
	}
	for i := range gotWarm {
		if math.Abs(gotWarm[i].Score-gotCold[i].Score) > 1e-9 || gotWarm[i].Row.Identity() != gotCold[i].Row.Identity() {
			t.Fatalf("rank %d differs warm vs cold", i)
		}
	}
	if warmDelta >= coldTotal {
		t.Errorf("reuse saved nothing: warm delta %d vs cold %d", warmDelta, coldTotal)
	}
	t.Logf("warm delta %d vs cold %d tuples", warmDelta, coldTotal)

	// Duplicates must not appear when recovered state merges with live rows.
	for _, m := range warm.ctrl.Merges() {
		for _, e := range m.RM.Entries {
			if d := e.Duplicates(); d != 0 {
				t.Errorf("entry %s dropped %d duplicates", e.CQ.ID, d)
			}
		}
	}
}

// TestEpochRecoveryExactness: rows recovered from pre-epoch state plus live
// rows must equal a fresh full evaluation (no missing all-old combinations).
func TestEpochRecoveryExactness(t *testing.T) {
	seed := uint64(21)
	h := newHarness(t, seed, 40, 100, 30, false)
	// First query reads streams partway (small k).
	q1 := starCQ("CQ1", "", scoring.QSystem(0, []float64{1, 1, 1}), false)
	h.run(t, &cq.UQ{ID: "U-CQ1", K: 3, CQs: []*cq.CQ{q1}})

	// Second identical-shape query with large k must see everything.
	q2 := starCQ("CQ2", "", scoring.QSystem(0, []float64{1, 1, 1}), false)
	got := h.run(t, &cq.UQ{ID: "U-CQ2", K: 100000, CQs: []*cq.CQ{q2}})

	store := h.ctrl.Fleet.MustDB("db").Store()
	want := bruteTopK(h, q2, 1<<30, store)
	if len(got) != len(want) {
		t.Fatalf("recovered run returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i]) > 1e-9 {
			t.Fatalf("rank %d score %v, want %v", i, got[i].Score, want[i])
		}
	}
}

// TestMergeIndexAndForget: merges are findable by user-query id in O(1),
// completed ones can be forgotten, and the compacting active list keeps
// RunRound from rescanning history.
func TestMergeIndexAndForget(t *testing.T) {
	h := newHarness(t, 77, 40, 90, 30, false)
	model := scoring.QSystem(0.5, []float64{1, 1, 0.9})
	q := starCQ("CQidx", "x", model, false)
	uq := &cq.UQ{ID: "U-CQidx", K: 5, CQs: []*cq.CQ{q}}

	if h.ctrl.MergeByUQ(uq.ID) != nil {
		t.Fatal("index populated before admission")
	}
	if _, err := h.mgr.Admit([]batcher.Submission{{At: 0, UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		t.Fatal(err)
	}
	m := h.ctrl.MergeByUQ(uq.ID)
	if m == nil || m.RM.UQ.ID != uq.ID {
		t.Fatal("MergeByUQ did not find the admitted query")
	}

	for h.ctrl.RunRound() {
	}
	if !m.Done || m.Canceled {
		t.Fatalf("merge state after run: done=%v canceled=%v", m.Done, m.Canceled)
	}
	if len(m.RM.Results()) == 0 {
		t.Fatal("no results")
	}
	if !h.ctrl.AllDone() {
		t.Fatal("AllDone false after completion")
	}

	h.ctrl.Forget(uq.ID)
	if h.ctrl.MergeByUQ(uq.ID) != nil {
		t.Fatal("Forget left the merge indexed")
	}
	if len(h.ctrl.Merges()) != 0 {
		t.Fatalf("history retained %d merges after Forget", len(h.ctrl.Merges()))
	}
}

// TestCancelMerge: forgetting an unfinished query cancels it — marks it
// done+canceled and unlinks its conjunctive queries — and leaves the
// controller able to serve an identical follow-up query (reusing the
// canceled query's state).
func TestCancelMerge(t *testing.T) {
	h := newHarness(t, 78, 40, 90, 30, false)
	model := scoring.QSystem(0.5, []float64{1, 1, 0.9})
	q := starCQ("CQcan", "x", model, false)
	uq := &cq.UQ{ID: "U-CQcan", K: 5, CQs: []*cq.CQ{q}}
	if _, err := h.mgr.Admit([]batcher.Submission{{At: 0, UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		t.Fatal(err)
	}
	// Two reads in, abandon it. A lone merge's round reads a quantum of
	// tuples; a horizon of the current instant ends each round at its first
	// read, so the merge is still mid-flight when canceled.
	h.ctrl.RunRoundUntil(h.env.Clock.Now())
	h.ctrl.RunRoundUntil(h.env.Clock.Now())
	m := h.ctrl.MergeByUQ(uq.ID)
	if m == nil || m.Done {
		t.Fatal("merge finished before the cancel; the test would prove nothing")
	}
	h.ctrl.Forget(uq.ID)
	if !m.Done || !m.Canceled {
		t.Fatalf("cancel did not settle the merge: %+v", m)
	}
	if h.ctrl.MergeByUQ(uq.ID) != nil {
		t.Fatal("Forget left the canceled merge indexed")
	}
	if h.ctrl.RunRound() {
		t.Fatal("controller still active after sole query canceled")
	}

	// Forgetting an unknown query is a no-op.
	finished := m.Finished
	h.ctrl.Forget("nope")
	h.ctrl.Forget(uq.ID)
	if m.Finished != finished {
		t.Fatal("forgetting a settled query touched it again")
	}

	// The same search again must complete normally on the retained state.
	q2 := starCQ("CQcan2", "x", model, false)
	uq2 := &cq.UQ{ID: "U-CQcan2", K: 5, CQs: []*cq.CQ{q2}}
	res := h.run(t, uq2)
	m2 := h.ctrl.MergeByUQ(uq2.ID)
	h.ctrl.Forget(uq2.ID)
	if m2.Canceled {
		t.Fatal("forgetting a finished query canceled it")
	}
	if len(res) == 0 {
		t.Fatal("follow-up query after cancellation returned nothing")
	}
}

// TestSinkStateAccountingAndRelease covers the §6.3 satellite: rank-merge
// seen sets and candidate buffers are visible to memory accounting while
// their CQs are attached, and are released when the queries unlink.
func TestSinkStateAccountingAndRelease(t *testing.T) {
	h := newHarness(t, 17, 40, 120, 30, false)
	q := starCQ("CQacct", "", scoring.QSystem(0.3, []float64{1, 1, 1}), false)
	uq := &cq.UQ{ID: "U-CQacct", K: 8, CQs: []*cq.CQ{q}}
	if _, err := h.mgr.Admit([]batcher.Submission{{At: 0, UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		t.Fatal(err)
	}
	// Drive one-read rounds (a horizon of the current instant ends each
	// round at its first read) until the entry has buffered or deduplicated
	// something, proving the accounting sees mid-run sink state.
	sawState := false
	for i := 0; i < 100000; i++ {
		if h.ctrl.SinkStateRows() > 0 {
			sawState = true
			break
		}
		if !h.ctrl.RunRoundUntil(h.env.Clock.Now()) {
			break
		}
	}
	if !sawState {
		t.Fatal("SinkStateRows never reported attached sink state")
	}
	// StateSize must include it (it is strictly larger than node state alone).
	nodeOnly := 0
	for _, n := range h.graph.Nodes() {
		if x, ok := h.ctrl.HasExec(n); ok {
			nodeOnly += x.StateSize()
		}
	}
	if got := h.mgr.StateSize(); got != nodeOnly+h.ctrl.SinkStateRows() {
		t.Fatalf("StateSize %d != node state %d + sink state %d", got, nodeOnly, h.ctrl.SinkStateRows())
	}
	// Completion unlinks every CQ; the seen sets must be gone.
	for h.ctrl.RunRound() {
	}
	if got := h.ctrl.SinkStateRows(); got != 0 {
		t.Fatalf("SinkStateRows after completion = %d, want 0", got)
	}
}
