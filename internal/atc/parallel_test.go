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
	"repro/internal/workload"
)

// multiHarness builds nStars independent star databases (A<i> ⋈ B<i> ⋈ C<i>)
// in one store: queries on different stars share no relation, so their plan
// segments are guaranteed-disjoint components; queries on one star share its
// pushdown streams.
type multiHarness struct {
	env   *operator.Env
	graph *plangraph.Graph
	ctrl  *atc.ATC
	mgr   *qsm.Manager
}

func newMultiHarness(t *testing.T, seed uint64, nStars, workers int) *multiHarness {
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

	return newHarnessOver(t, remotedb.NewFleet(remotedb.New(store)), cat, seed, workers)
}

// newHarnessOver wires one engine over the given sources at the given worker
// count.
func newHarnessOver(t *testing.T, fleet *remotedb.Fleet, cat *catalog.Catalog, seed uint64, workers int) *multiHarness {
	t.Helper()
	env := &operator.Env{
		Clock:   simclock.NewVirtual(0),
		Delays:  simclock.DefaultDelays(dist.New(seed + 9)),
		Metrics: &metrics.Counters{},
	}
	graph := plangraph.New("")
	ctrl := atc.New(graph, env, fleet)
	mgr := qsm.New(graph, ctrl, cat, costmodel.New(cat, costmodel.DefaultParams()), qsm.ShareAll)
	mgr.Unit = qsm.UnitUQ
	if workers > 1 {
		ctrl.EnableParallel(workers, seed)
		t.Cleanup(ctrl.Close)
	}
	return &multiHarness{env: env, graph: graph, ctrl: ctrl, mgr: mgr}
}

// starNCQ is one conjunctive query over star s. Identical structure on one
// star yields identical expression keys, so such queries share plan nodes.
func starNCQ(s int, id string, model *scoring.Model) *cq.CQ {
	return &cq.CQ{
		ID:   id,
		UQID: "U-" + id,
		Atoms: []*cq.Atom{
			{Rel: fmt.Sprintf("A%d", s), DB: "db", Args: []cq.Term{cq.V(0), cq.C(tuple.String("x")), cq.V(11)}},
			{Rel: fmt.Sprintf("B%d", s), DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(12)}},
			{Rel: fmt.Sprintf("C%d", s), DB: "db", Args: []cq.Term{cq.V(1), cq.V(13)}},
		},
		Model: model,
	}
}

// uqOn builds one user query with one CQ per listed star.
func uqOn(id string, k int, stars ...int) *cq.UQ {
	model := scoring.QSystem(0.5, []float64{1, 1, 0.9})
	uq := &cq.UQ{ID: id, K: k}
	for i, s := range stars {
		uq.CQs = append(uq.CQs, starNCQ(s, fmt.Sprintf("%s-cq%d", id, i), model))
	}
	return uq
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

// refPartition recomputes the component partition from scratch: a union-find
// over the unfinished merges' captured footprints, independent of the
// controller's cached index.
func refPartition(ctrl *atc.ATC) [][]string {
	var ids []string
	for _, m := range ctrl.Merges() {
		if !m.Done {
			ids = append(ids, m.RM.UQ.ID)
		}
	}
	parent := make([]int, len(ids))
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
	owner := map[string]int{}
	for i, id := range ids {
		for _, k := range ctrl.MergeNodeKeys(id) {
			if o, ok := owner[k]; ok {
				ra, rb := find(i), find(o)
				if ra != rb {
					if ra < rb {
						parent[rb] = ra
					} else {
						parent[ra] = rb
					}
				}
			} else {
				owner[k] = i
			}
		}
	}
	slot := map[int]int{}
	var out [][]string
	for i, id := range ids {
		r := find(i)
		s, ok := slot[r]
		if !ok {
			s = len(out)
			slot[r] = s
			out = append(out, nil)
		}
		out[s] = append(out[s], id)
	}
	return out
}

func partitionString(p [][]string) string {
	var parts []string
	for _, comp := range p {
		parts = append(parts, strings.Join(comp, "+"))
	}
	return strings.Join(parts, " | ")
}

func checkPartition(t *testing.T, ctrl *atc.ATC, when string) {
	t.Helper()
	got := partitionString(ctrl.ComponentIDs())
	want := partitionString(refPartition(ctrl))
	if got != want {
		t.Fatalf("%s: component index %q != from-scratch union-find %q", when, got, want)
	}
}

// TestComponentIndexMatchesScratch churns the controller through
// submissions, partial execution, cancellation and Forget, checking after
// every event that the incrementally maintained component partition equals a
// from-scratch union-find over the live merges' plan-graph footprints — and
// that the partition has the shapes the star layout dictates.
func TestComponentIndexMatchesScratch(t *testing.T) {
	h := newMultiHarness(t, 42, 4, 1)

	h.admit(t, uqOn("U1", 4, 0))
	checkPartition(t, h.ctrl, "after U1")
	h.admit(t, uqOn("U2", 4, 1))
	checkPartition(t, h.ctrl, "after U2")
	h.admit(t, uqOn("U3", 4, 0)) // shares star 0 with U1
	checkPartition(t, h.ctrl, "after U3")
	h.admit(t, uqOn("U4", 4, 1, 2)) // bridges star 1 (U2) and star 2
	checkPartition(t, h.ctrl, "after U4")
	h.admit(t, uqOn("U5", 4, 3))
	checkPartition(t, h.ctrl, "after U5")

	want := "U1+U3 | U2+U4 | U5"
	if got := partitionString(h.ctrl.ComponentIDs()); got != want {
		t.Fatalf("partition %q, want %q", got, want)
	}

	// Disjoint stars must have disjoint footprints.
	seen := map[string]string{}
	for _, id := range []string{"U1", "U2", "U5"} {
		keys := h.ctrl.MergeNodeKeys(id)
		if len(keys) == 0 {
			t.Fatalf("%s has empty footprint", id)
		}
		for _, k := range keys {
			if other, dup := seen[k]; dup {
				t.Fatalf("node %s in footprints of both %s and %s", k, other, id)
			}
			seen[k] = id
		}
	}

	// Cancel the bridge: star 1 and star 2 fall apart once U4 leaves.
	h.ctrl.CancelMerge("U4")
	h.ctrl.Forget("U4")
	checkPartition(t, h.ctrl, "after cancel U4")
	if got := partitionString(h.ctrl.ComponentIDs()); got != "U1+U3 | U2 | U5" {
		t.Fatalf("partition after cancel %q", got)
	}

	// Drive to completion one round at a time; the partition must track the
	// shrinking active set at every step.
	for i := 0; h.ctrl.RunRound(); i++ {
		checkPartition(t, h.ctrl, fmt.Sprintf("round %d", i))
	}
	for _, m := range h.ctrl.Merges() {
		if m.RM.UQ.ID != "U4" && (!m.Done || m.Err != nil) {
			t.Fatalf("%s done=%v err=%v", m.RM.UQ.ID, m.Done, m.Err)
		}
	}
	if got := len(h.ctrl.ComponentIDs()); got != 0 {
		t.Fatalf("%d components after completion", got)
	}

	// New work after the churn still indexes correctly.
	h.admit(t, uqOn("U6", 4, 2))
	checkPartition(t, h.ctrl, "after U6")
}

// contentCounters projects a snapshot onto its order-independent content
// counters — what must be identical between the serial engine and the
// parallel executor. (Virtual-time buckets differ by design: the serial
// engine draws delays from one engine-wide RNG sequence, the parallel
// executor from per-node models.)
func contentCounters(s metrics.Snapshot) [8]int64 {
	return [8]int64{s.StreamTuples, s.ProbeCalls, s.ProbeCacheHits, s.ProbeTuples,
		s.JoinInserts, s.JoinProbes, s.ResultsEmitted, s.ReplayTuples}
}

// runAll drives everything to completion and returns each merge's rendered
// results keyed by UQ id.
func runAll(t *testing.T, h *multiHarness) map[string]string {
	t.Helper()
	for h.ctrl.RunRound() {
	}
	out := map[string]string{}
	for _, m := range h.ctrl.Merges() {
		if !m.Done {
			t.Fatalf("%s not done", m.RM.UQ.ID)
		}
		if m.Err != nil {
			t.Fatalf("%s failed: %v", m.RM.UQ.ID, m.Err)
		}
		var b strings.Builder
		for i, r := range m.RM.Results() {
			fmt.Fprintf(&b, "%d|%.12g|%s|%s\n", i+1, r.Score, r.CQID, r.Row.Identity())
		}
		out[m.RM.UQ.ID] = b.String()
	}
	return out
}

// TestParallelRoundsMatchSerial is the engine-level determinism gate: the
// same workload, two admission waves with the second grafting mid-execution,
// must produce identical per-query results and identical content counters at
// workers 1, 2 and 4. The two parallel runs must additionally agree on the
// virtual-time buckets (their per-node delay discipline is identical).
//
// "stars" mixes disjoint and shared topics, so rounds hold several
// components. "overlap" poses the Bio workload's overlapping topics, which
// collapse into one component: many merges over shared streams, each stream
// row cascading into joins that belong to other merges, including merges
// whose own footprint the reading merge does not touch. Under -race it is
// the gate that no scheduler runs two merges of one component side by side.
func TestParallelRoundsMatchSerial(t *testing.T) {
	type outcome struct {
		results map[string]string
		content [8]int64
		snap    metrics.Snapshot
	}
	finish := func(h *multiHarness) outcome {
		res := runAll(t, h)
		snap := h.env.Metrics.Snapshot()
		return outcome{results: res, content: contentCounters(snap), snap: snap}
	}
	suites := []struct {
		name   string
		merges int
		runAt  func(workers int) outcome
	}{
		{"stars", 9, func(workers int) outcome {
			h := newMultiHarness(t, 42, 4, workers)
			h.admit(t, uqOn("U1", 6, 0), uqOn("U2", 6, 1), uqOn("U3", 5, 2),
				uqOn("U4", 5, 0), uqOn("U5", 4, 3), uqOn("U6", 4, 1, 2))
			for i := 0; i < 40; i++ {
				h.ctrl.RunRound()
			}
			h.admit(t, uqOn("U7", 5, 2), uqOn("U8", 6, 3), uqOn("U9", 4, 0))
			return finish(h)
		}},
		{"overlap", 24, func(workers int) outcome {
			// A fresh workload per run: no run inherits another's
			// materialised source views.
			w, err := workload.Bio()
			if err != nil {
				t.Fatal(err)
			}
			h := newHarnessOver(t, w.Fleet, w.Catalog, 42, workers)
			topics := [][]string{
				{"metabolism", "protein"}, {"metabolism", "gene"}, {"membrane", "protein"},
				{"plasma membrane", "protein"}, {"membrane", "gene"}, {"metabolism", "gene", "protein"},
			}
			for n := 0; n < 24; n++ {
				// Eight users (one scoring model each) over six topics, a
				// wave of four admitted every 30 rounds.
				uq, err := workload.BioUQ(w, fmt.Sprintf("U%d", n), topics[(n/4+n%4*5)%len(topics)], 5, uint64(n%8)+1)
				if err != nil {
					t.Fatal(err)
				}
				h.admit(t, uq)
				if n%4 == 3 {
					for i := 0; i < 30; i++ {
						h.ctrl.RunRound()
					}
					if got := len(h.ctrl.ComponentIDs()); got != 1 {
						t.Fatalf("overlap suite: %d components after %d admissions, want 1", got, n+1)
					}
				}
			}
			return finish(h)
		}},
	}
	for _, suite := range suites {
		serial, par2, par4 := suite.runAt(1), suite.runAt(2), suite.runAt(4)
		if len(serial.results) != suite.merges {
			t.Fatalf("%s: expected %d merges, got %d", suite.name, suite.merges, len(serial.results))
		}
		for id, want := range serial.results {
			if par2.results[id] != want {
				t.Fatalf("%s workers=2: %s results differ from serial:\n%s\nvs\n%s", suite.name, id, par2.results[id], want)
			}
			if par4.results[id] != want {
				t.Fatalf("%s workers=4: %s results differ from serial:\n%s\nvs\n%s", suite.name, id, par4.results[id], want)
			}
		}
		if par2.content != serial.content || par4.content != serial.content {
			t.Fatalf("%s: content counters differ: serial=%v w2=%v w4=%v", suite.name, serial.content, par2.content, par4.content)
		}
		if par2.snap != par4.snap {
			t.Fatalf("%s: parallel runs disagree on full snapshots:\n%+v\nvs\n%+v", suite.name, par2.snap, par4.snap)
		}
	}
}

// TestNonConvergenceFailsMergeNotProcess pins the failure path: a scheduling
// round that exceeds its step bound must fail that merge with an error —
// not panic — leave the controller serviceable, and not poison later
// queries.
func TestNonConvergenceFailsMergeNotProcess(t *testing.T) {
	for _, workers := range []int{1, 4} {
		h := newMultiHarness(t, 7, 2, workers)
		h.ctrl.SetDriveBound(1) // nothing real converges in one step
		h.admit(t, uqOn("U1", 5, 0), uqOn("U2", 5, 1))
		for h.ctrl.RunRound() {
		}
		for _, id := range []string{"U1", "U2"} {
			m := h.ctrl.MergeByUQ(id)
			if m == nil || !m.Done {
				t.Fatalf("workers=%d: %s not done", workers, id)
			}
			if m.Err == nil || !strings.Contains(m.Err.Error(), "did not converge") {
				t.Fatalf("workers=%d: %s err = %v, want non-convergence", workers, id, m.Err)
			}
			h.ctrl.Forget(id)
		}
		if !h.ctrl.AllDone() {
			t.Fatalf("workers=%d: controller stuck", workers)
		}

		// Restore the bound; fresh queries must run to a clean result.
		h.ctrl.SetDriveBound(0)
		h.admit(t, uqOn("U3", 5, 0))
		for h.ctrl.RunRound() {
		}
		m := h.ctrl.MergeByUQ("U3")
		if m == nil || !m.Done || m.Err != nil {
			t.Fatalf("workers=%d: recovery query failed: %+v", workers, m)
		}
		if len(m.RM.Results()) == 0 {
			t.Fatalf("workers=%d: recovery query produced no results", workers)
		}
		if s := m.RM.Results()[0].Score; math.IsNaN(s) || s <= 0 {
			t.Fatalf("workers=%d: bad top score %v", workers, s)
		}
	}
}
