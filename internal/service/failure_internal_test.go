package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// expandAndSearch poses one search the way the front desk does: expand, then
// hand the engine the expanded query.
func expandAndSearch(svc *Service, exp *Expander, user string, kw []string, k int) (*Result, error) {
	uq, err := exp.Expand(user, kw, k)
	if err != nil {
		return nil, err
	}
	return svc.SearchUQ(context.Background(), uq)
}

// TestNonConvergentMergeFailsSearchResponse pins the engine-failure contract
// end to end: a merge whose scheduling rounds exceed the drive bound must
// come back to the caller as a failed search response — the serve process
// and its executor goroutine survive, and lifting the bound restores
// service on the same engine.
func TestNonConvergentMergeFailsSearchResponse(t *testing.T) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8, Seed: 3, BatchWindow: 0}
	svc, exp := New(w, cfg), NewExpander(w, cfg)
	defer svc.Close()

	kw := w.Submissions[0].UQ.Keywords
	// Cripple the bound before any request: every round then trips the
	// non-convergence error on the executor goroutine.
	svc.ctrl.SetDriveBound(1)
	if _, err := expandAndSearch(svc, exp, "u", kw, 8); err == nil {
		t.Fatal("crippled engine answered a search successfully")
	} else if !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("search error %v, want non-convergence", err)
	}

	// The executor must still be alive and serving: restore the bound
	// through the engine's own submission path and search again.
	svc.ctrl.SetDriveBound(0)
	res, err := expandAndSearch(svc, exp, "u", kw, 8)
	if err != nil {
		t.Fatalf("search after recovery: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("recovered search returned no answers")
	}
}

// TestJournalFailureCountedAndServed: the admission journal is best-effort —
// a journal whose file is gone from under it (full or failing disk) must not
// refuse the search, but every failed write must show in RecoveryStats.
func TestJournalFailureCountedAndServed(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, BatchWindow: 0, CheckpointDir: t.TempDir()}
	svc, exp := New(w, cfg), NewExpander(w, cfg)
	defer svc.Close()

	kw := []string{"protein", "metabolism"}
	if _, err := expandAndSearch(svc, exp, "u", kw, 5); err != nil {
		t.Fatal(err)
	}
	if n := svc.RecoveryStats().JournalErrors; n != 0 {
		t.Fatalf("healthy journal counted %d errors", n)
	}
	svc.exec(func() { svc.jnl.Close() })
	res, err := expandAndSearch(svc, exp, "u", kw, 5)
	if err != nil || len(res.Answers) == 0 {
		t.Fatalf("search over a failed journal: %v", err)
	}
	if n := svc.RecoveryStats().JournalErrors; n == 0 {
		t.Fatal("failed journal writes were not counted")
	}
}

// midFlight is a search context that the executor cancels itself: the
// first Err call that finds the query admitted, its merge registered and
// unfinished and source tuples read cancels it. Only the executor calls Err
// before it fires (the caller waits on Done), so the check reads engine
// state on the engine's own goroutine, and the cancel lands between two
// rounds of the running merge whatever the timing.
type midFlight struct {
	context.Context
	cancel context.CancelFunc
	svc    *Service
	id     string
	fired  atomic.Bool
}

func (c *midFlight) Err() error {
	if !c.fired.Load() {
		m := c.svc.ctrl.MergeByUQ(c.id)
		if _, admitted := c.svc.waiters[c.id]; !admitted || m == nil || m.Done ||
			c.svc.env.Metrics.Snapshot().StreamTuples == 0 {
			return nil
		}
		c.fired.Store(true)
		c.cancel()
	}
	return c.Context.Err()
}

// TestContextCancellationMidFlight cancels a search while its merge is
// reading its sources: the engine settles it as canceled, not completed,
// and keeps serving.
func TestContextCancellationMidFlight(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 50, BatchWindow: 0}
	svc, exp := New(w, cfg), NewExpander(w, cfg)
	defer svc.Close()

	uq, err := exp.Expand("u", []string{"metabolism", "protein"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &midFlight{svc: svc, id: uq.ID}
	ctx.Context, ctx.cancel = context.WithCancel(context.Background())
	defer ctx.cancel()
	if _, err := svc.SearchUQ(ctx, uq); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if st := svc.Stats().Service; st.Completed != 0 || st.Canceled != 1 || st.InFlight != 0 {
		t.Fatalf("completed %d, canceled %d, in flight %d; want the search canceled mid-execution",
			st.Completed, st.Canceled, st.InFlight)
	}
	// The executor keeps serving after a cancellation.
	res, err := expandAndSearch(svc, exp, "v", []string{"gene"}, 1)
	if err != nil || len(res.Answers) == 0 {
		t.Fatalf("post-cancel search: res=%v err=%v", res, err)
	}
}
