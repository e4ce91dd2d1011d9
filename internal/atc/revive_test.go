package atc_test

import (
	"fmt"
	"testing"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/core/coretest"
	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/scoring"
)

// reviveWork is the part of the work counters a revive can charge.
type reviveWork struct {
	joinProbes, replay, rebound, fromSpill, restores int64
}

func reviveDelta(from, to metrics.Snapshot) reviveWork {
	return reviveWork{
		joinProbes: to.JoinProbes - from.JoinProbes,
		replay:     to.ReplayTuples - from.ReplayTuples,
		rebound:    to.RevivalsRebound - from.RevivalsRebound,
		fromSpill:  to.RevivalsFromSpill - from.RevivalsFromSpill,
		restores:   to.MigrationRestores - from.MigrationRestores,
	}
}

// graft admits one user query without driving it and returns what the
// admission's revives charged.
func (h *harness) graft(t testing.TB, uq *cq.UQ) reviveWork {
	t.Helper()
	before := h.env.Metrics.Snapshot()
	if _, err := h.mgr.Admit([]batcher.Submission{{At: h.env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		t.Fatalf("admit %s: %v", uq.ID, err)
	}
	return reviveDelta(before, h.env.Metrics.Snapshot())
}

// finish drives the admitted queries to completion and returns one's answers.
func (h *harness) finish(t testing.TB, uqID string) []operator.Result {
	t.Helper()
	for h.ctrl.RunRound() {
	}
	h.mgr.SyncCatalog()
	m := h.ctrl.MergeByUQ(uqID)
	if m == nil || !m.Done || m.Err != nil {
		t.Fatalf("%s did not finish cleanly: %+v", uqID, m)
	}
	return m.RM.Results()
}

func (h *harness) logs() map[string]coretest.NodeLog { return coretest.NodeLogs(h.graph, h.ctrl) }

// starUQ is a one-CQ user query over a split star harness, whose sources
// push no join down, so its plan is an m-join segment that can park.
func starUQ(id, sel string, k int, coeffs []float64) *cq.UQ {
	q := starCQ(id, sel, scoring.QSystem(0.3, coeffs), false)
	for _, a := range q.Atoms {
		a.DB = starDB(a.Rel, true)
	}
	return &cq.UQ{ID: "U-" + id, K: k, CQs: []*cq.CQ{q}}
}

// newSplitHarness is a star harness with one database per relation.
func newSplitHarness(t testing.TB, seed uint64, nA, nB, nC int) *harness {
	t.Helper()
	return newStarHarness(t, seed, nA, nB, nC, false, true)
}

// moduleLens records every join node's module sizes.
func moduleLens(h *harness) map[string][]int {
	out := map[string][]int{}
	for _, n := range h.graph.Nodes() {
		x, ok := h.ctrl.HasExec(n)
		if !ok || n.Kind != plangraph.Join {
			continue
		}
		lens := make([]int, len(n.Inputs))
		for i := range n.Inputs {
			lens[i] = x.Module(i).Len()
		}
		out[n.Key] = lens
	}
	return out
}

// TestReviveParkedSegmentRebinds: a segment parked with complete history and
// re-grafted with nothing missed is re-bound at no join work — no probes, no
// replayed seeds, an unchanged log — and answers what the always-recover
// path answers.
func TestReviveParkedSegmentRebinds(t *testing.T) {
	type outcome struct {
		h       *harness
		graft   reviveWork
		answers []operator.Result
	}
	run := func(force bool) outcome {
		h := newSplitHarness(t, 7, 50, 150, 40)
		atc.SetForceRecover(h.ctrl, force)
		h.graft(t, starUQ("CQ1", "", 15, []float64{1, 1, 1}))
		h.finish(t, "U-CQ1")
		if len(moduleLens(h)) == 0 {
			t.Fatal("the first query left no join state to park")
		}
		parked := h.logs()
		w := h.graft(t, starUQ("CQ2", "", 15, []float64{0.9, 1, 1}))
		if !force {
			coretest.SameLogs(t, "after re-binding", h.logs(), parked)
		}
		return outcome{h: h, graft: w, answers: h.finish(t, "U-CQ2")}
	}
	rebind, forced := run(false), run(true)
	if w := rebind.graft; w.joinProbes != 0 || w.replay != 0 || w.rebound == 0 {
		t.Fatalf("re-graft onto a parked, current segment charged %+v; want no probes or replay and a re-bound revival", w)
	}
	if w := forced.graft; w.joinProbes == 0 || w.replay == 0 || w.rebound != 0 {
		t.Fatalf("forced recovery charged %+v; the case proves nothing", w)
	}
	coretest.Same(t, "re-bound vs forced", "answers", coretest.Answers(rebind.answers, false), coretest.Answers(forced.answers, false))
	coretest.SameLogs(t, "re-bound vs forced", rebind.h.logs(), forced.h.logs())
}

// TestReviveAfterParentAdvancedRecovers: while a segment is parked, a second
// query that shares its parent streams reads them further. Re-grafting the
// parked segment tops its modules up with those rows, so it must re-join:
// its log must equal the always-recover path's, row for row.
func TestReviveAfterParentAdvancedRecovers(t *testing.T) {
	type outcome struct {
		h       *harness
		graft   reviveWork
		grew    bool
		answers []operator.Result
	}
	run := func(force bool) outcome {
		h := newSplitHarness(t, 21, 40, 100, 30)
		atc.SetForceRecover(h.ctrl, force)
		h.graft(t, starUQ("CQ1", "x", 3, []float64{1, 1, 1}))
		h.finish(t, "U-CQ1")
		parked := moduleLens(h)
		// The shared streams advance to exhaustion under a query of its own.
		h.graft(t, starUQ("CQ2", "", 100000, []float64{1, 1, 1}))
		h.finish(t, "U-CQ2")
		w := h.graft(t, starUQ("CQ3", "x", 3, []float64{0.8, 1, 1}))
		o := outcome{h: h, graft: w}
		after := moduleLens(h)
		for key, lens := range parked {
			for i, n := range lens {
				if after[key][i] > n {
					o.grew = true
				}
			}
		}
		o.answers = h.finish(t, "U-CQ3")
		return o
	}
	rebind, forced := run(false), run(true)
	if !rebind.grew {
		t.Fatal("no parked module was topped up; the case proves nothing")
	}
	if rebind.graft.replay == 0 {
		t.Fatalf("a topped-up parked segment was revived without recovery: %+v", rebind.graft)
	}
	if rebind.graft.joinProbes > forced.graft.joinProbes || rebind.graft.replay > forced.graft.replay {
		t.Fatalf("re-graft charged %+v, more than forced recovery's %+v", rebind.graft, forced.graft)
	}
	coretest.Same(t, "re-grafted vs forced", "answers", coretest.Answers(rebind.answers, false), coretest.Answers(forced.answers, false))
	coretest.SameLogs(t, "re-grafted vs forced", rebind.h.logs(), forced.h.logs())
}

// TestReviveRestoredSegmentRecovers: a node reinstalled from a spill segment
// or from a staged segment — a checkpoint imported into a fresh engine,
// whose reinstalls the work counters count as migration restores — always
// runs full recovery, charging exactly what the always-recover path charges.
func TestReviveRestoredSegmentRecovers(t *testing.T) {
	first := starUQ("CQ1", "", 15, []float64{1, 1, 1})
	again := func() *cq.UQ { return starUQ("CQ2", "", 15, []float64{0.9, 1, 1}) }

	t.Run("spill", func(t *testing.T) {
		run := func(force bool) (*harness, reviveWork, []operator.Result) {
			h := newSplitHarness(t, 7, 50, 150, 40)
			atc.SetForceRecover(h.ctrl, force)
			if err := h.mgr.EnableSpill(t.TempDir(), h.mgr.DefaultResolver()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { h.mgr.State.Close() }) //nolint:errcheck
			h.graft(t, first)
			h.finish(t, first.ID)
			// Evict everything idle to the disk tier.
			h.mgr.MemoryBudget = 1
			h.mgr.EnforceBudget()
			h.mgr.MemoryBudget = 0
			uq := again()
			w := h.graft(t, uq)
			return h, w, h.finish(t, uq.ID)
		}
		rh, rw, ra := run(false)
		fh, fw, fa := run(true)
		if rw.fromSpill == 0 {
			t.Fatal("no node was restored from spill; the case proves nothing")
		}
		if rw.replay == 0 || rw != fw {
			t.Fatalf("revival from spill charged %+v, forced recovery %+v; want equal and replaying", rw, fw)
		}
		coretest.Same(t, "spill", "answers", coretest.Answers(ra, false), coretest.Answers(fa, false))
		coretest.SameLogs(t, "spill", rh.logs(), fh.logs())
	})

	t.Run("migration", func(t *testing.T) {
		run := func(force bool) (*harness, reviveWork, []operator.Result) {
			src := newSplitHarness(t, 7, 50, 150, 40)
			src.graft(t, first)
			src.finish(t, first.ID)
			exp := src.mgr.CheckpointExport()
			if len(exp.Segments) == 0 {
				t.Fatal("nothing checkpointed")
			}
			h := newSplitHarness(t, 7, 50, 150, 40)
			atc.SetForceRecover(h.ctrl, force)
			if installed, _ := h.mgr.ImportSegments(exp); installed == 0 {
				t.Fatal("nothing staged")
			}
			uq := again()
			w := h.graft(t, uq)
			return h, w, h.finish(t, uq.ID)
		}
		rh, rw, ra := run(false)
		fh, fw, fa := run(true)
		if rw.restores == 0 {
			t.Fatal("no staged segment was reinstalled; the case proves nothing")
		}
		if rw.replay == 0 || rw != fw {
			t.Fatalf("revival from a staged segment charged %+v, forced recovery %+v; want equal and replaying", rw, fw)
		}
		coretest.Same(t, "migration", "answers", coretest.Answers(ra, false), coretest.Answers(fa, false))
		coretest.SameLogs(t, "migration", rh.logs(), fh.logs())
	})
}

// BenchmarkReviveParked admits and drains the same search over and over:
// after the first, every graft lands on the segment the previous one
// parked, so an iteration is a re-bind plus a drain of retained answers.
func BenchmarkReviveParked(b *testing.B) {
	h := newSplitHarness(b, 7, 50, 150, 40)
	run := func(i int) {
		uq := starUQ(fmt.Sprintf("CQ%d", i), "", 15, []float64{1, 1, 1})
		h.graft(b, uq)
		h.finish(b, uq.ID)
		h.ctrl.Forget(uq.ID)
	}
	run(-1)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		run(i)
	}
	if h.env.Metrics.Snapshot().RevivalsRebound == 0 {
		b.Fatal("no revive re-bound a parked segment")
	}
}

// TestRevivedStreamMarkedDirty pins the dirty list's marks: every stream a
// graft revives from the disk tier, its delivered prefix restored, is on the
// list the next catalog sync drains, before any round reads from it, so the
// sync records the position the revival restored.
func TestRevivedStreamMarkedDirty(t *testing.T) {
	first := starUQ("CQ1", "", 15, []float64{1, 1, 1})
	h := newSplitHarness(t, 7, 50, 150, 40)
	if err := h.mgr.EnableSpill(t.TempDir(), h.mgr.DefaultResolver()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.mgr.State.Close() }) //nolint:errcheck
	h.graft(t, first)
	h.finish(t, first.ID)
	h.mgr.MemoryBudget = 1
	h.mgr.EnforceBudget()
	h.mgr.MemoryBudget = 0
	h.ctrl.DrainDirty(func(*operator.NodeExec) {})

	h.graft(t, starUQ("CQ2", "", 15, []float64{0.9, 1, 1}))
	marked := map[*operator.NodeExec]bool{}
	h.ctrl.DrainDirty(func(x *operator.NodeExec) { marked[x] = true })
	restored := 0
	for _, n := range h.graph.Nodes() {
		x, ok := h.ctrl.HasExec(n)
		if !ok || x.Stream == nil || x.Stream.Pos() == 0 {
			continue
		}
		restored++
		if !marked[x] {
			t.Errorf("stream %s revived at position %d is not on the dirty list", n.Key, x.Stream.Pos())
		}
	}
	if restored == 0 || h.env.Metrics.Snapshot().RevivalsFromSpill == 0 {
		t.Fatal("no stream was revived from spill; the case proves nothing")
	}
}
