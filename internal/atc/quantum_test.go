package atc_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/cq"
	"repro/internal/metrics"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/scoring"
)

// runOutcome is everything a drive of the controller leaves behind that the
// read quantum must not change.
type runOutcome struct {
	results   map[string][]operator.Result
	finished  map[string]time.Duration
	positions map[string]int
	stats     plangraph.Stats
	work      metrics.Snapshot
	ledger    [2]int
	now       time.Duration
}

func outcome(h *harness) runOutcome {
	o := runOutcome{
		results:   map[string][]operator.Result{},
		finished:  map[string]time.Duration{},
		positions: map[string]int{},
		stats:     h.graph.Stats(),
		work:      h.env.Metrics.Snapshot(),
		ledger:    [2]int{h.mgr.StateSize(), h.mgr.AuditStateSize()},
		now:       h.env.Clock.Now(),
	}
	for _, m := range h.ctrl.Merges() {
		o.results[m.RM.UQ.ID] = m.RM.Results()
		o.finished[m.RM.UQ.ID] = m.Finished
	}
	for _, n := range h.graph.Nodes() {
		if x, ok := h.ctrl.HasExec(n); ok && x.Stream != nil {
			o.positions[n.Key] = x.Stream.Pos()
		}
	}
	return o
}

func sameOutcome(t *testing.T, what string, got, want runOutcome) {
	t.Helper()
	if len(want.results) == 0 {
		t.Fatalf("%s: no merges to compare", what)
	}
	for id, w := range want.results {
		sameResults(t, what+": "+id, got.results[id], w)
	}
	if !reflect.DeepEqual(got.finished, want.finished) {
		t.Fatalf("%s: finish times %v, want %v", what, got.finished, want.finished)
	}
	if !reflect.DeepEqual(got.positions, want.positions) {
		t.Fatalf("%s: stream positions %v, want %v", what, got.positions, want.positions)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: graph stats %+v, want %+v", what, got.stats, want.stats)
	}
	if got.work != want.work {
		t.Fatalf("%s: work %+v, want %+v", what, got.work, want.work)
	}
	if got.ledger != want.ledger || got.ledger[0] != got.ledger[1] {
		t.Fatalf("%s: ledger/audit %v, want %v (and equal)", what, got.ledger, want.ledger)
	}
	if got.now != want.now {
		t.Fatalf("%s: clock %v, want %v", what, got.now, want.now)
	}
}

// sameResults requires equal answers, in order, with equal emission stamps.
func sameResults(t *testing.T, what string, got, want []operator.Result) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d results, want %d (> 0)", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Score != w.Score || g.At != w.At || g.CQID != w.CQID || g.Row.Identity() != w.Row.Identity() {
			t.Fatalf("%s: rank %d = %+v, want %+v", what, i+1, g, w)
		}
	}
}

// quantumHarness admits one two-CQ user query into a fresh star harness
// whose controller uses the given read quantum (1 = one-read rounds).
func quantumHarness(t *testing.T, quantum int) *harness {
	t.Helper()
	h := newHarness(t, 31, 120, 600, 80, false)
	atc.SetReadQuantum(h.ctrl, quantum)
	model := scoring.QSystem(0.4, []float64{1, 0.9, 1})
	uq := &cq.UQ{ID: "U-q", K: 200, CQs: []*cq.CQ{
		starCQ("CQq1", "x", model, false),
		starCQ("CQq2", "", model, false),
	}}
	if _, err := h.mgr.Admit([]batcher.Submission{{At: 0, UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestQuantumMatchesOneReadRounds pins the read quantum's contract: a lone
// merge's quantum round is the same reads in the same order as that many
// one-read rounds — same answers and emission stamps, stream positions,
// graph, ledger and virtual clock — with fewer rounds; two live merges
// never get a quantum; and a horizon stops a quantum where one-read rounds
// stop.
func TestQuantumMatchesOneReadRounds(t *testing.T) {
	drain := func(h *harness) int {
		rounds := 0
		for h.ctrl.RunRound() {
			rounds++
		}
		return rounds
	}

	t.Run("lone", func(t *testing.T) {
		one, quant := quantumHarness(t, 1), quantumHarness(t, 0)
		oneRounds, quantRounds := drain(one), drain(quant)
		sameOutcome(t, "lone merge", outcome(quant), outcome(one))
		if quantRounds*8 > oneRounds {
			t.Fatalf("quantum ran %d rounds vs %d one-read rounds; it did not engage", quantRounds, oneRounds)
		}
		t.Logf("%d one-read rounds -> %d quantum rounds", oneRounds, quantRounds)
	})

	t.Run("two merges", func(t *testing.T) {
		run := func(quantum int) *multiHarness {
			h := newMultiHarness(t, 11, 2)
			atc.SetReadQuantum(h.ctrl, quantum)
			h.admit(t, uqOn("U1", 8, 0), uqOn("U2", 8, 1))
			u1, u2 := h.ctrl.MergeByUQ("U1"), h.ctrl.MergeByUQ("U2")
			for !u1.Done && !u2.Done {
				before := h.env.Metrics.Snapshot().StreamTuples
				h.ctrl.RunRound()
				if d := h.env.Metrics.Snapshot().StreamTuples - before; d > 2 {
					t.Fatalf("quantum %d: a round with two live merges read %d tuples", quantum, d)
				}
			}
			for h.ctrl.RunRound() {
			}
			return h
		}
		one, quant := run(1), run(0)
		for _, id := range []string{"U1", "U2"} {
			a, b := one.ctrl.MergeByUQ(id), quant.ctrl.MergeByUQ(id)
			sameResults(t, id, b.RM.Results(), a.RM.Results())
			if a.Finished != b.Finished {
				t.Fatalf("%s finished at %v under quantum rounds, %v under one-read rounds", id, b.Finished, a.Finished)
			}
		}
		if a, b := one.env.Metrics.Snapshot(), quant.env.Metrics.Snapshot(); a != b {
			t.Fatalf("work differs: one-read %+v, quantum %+v", a, b)
		}
	})

	t.Run("horizon", func(t *testing.T) {
		ref := quantumHarness(t, 1)
		drain(ref)
		horizon := ref.env.Clock.Now() / 2
		until := func(h *harness) {
			for !h.ctrl.AllDone() && h.env.Clock.Now() < horizon {
				h.ctrl.RunRoundUntil(horizon)
			}
		}
		one, quant := quantumHarness(t, 1), quantumHarness(t, 0)
		until(one)
		until(quant)
		if one.ctrl.AllDone() {
			t.Fatal("the horizon is past the merge's end; the case proves nothing")
		}
		sameOutcome(t, "at the horizon", outcome(quant), outcome(one))
		// Without the horizon the same quantum rounds overshoot it.
		over := quantumHarness(t, 0)
		for !over.ctrl.AllDone() && over.env.Clock.Now() < horizon {
			over.ctrl.RunRound()
		}
		if over.env.Clock.Now() <= one.env.Clock.Now() {
			t.Fatalf("quantum rounds without a horizon stopped at %v, one-read rounds at %v; expected an overshoot", over.env.Clock.Now(), one.env.Clock.Now())
		}
		drain(one)
		drain(quant)
		sameOutcome(t, "after the horizon", outcome(quant), outcome(one))
	})
}
