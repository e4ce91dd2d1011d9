package qsm_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/batcher"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/qsm"
)

// TestServedSearchesLeaveNoPerQueryState serves a long run of recurring
// searches — each a fresh user query with fresh ids, run to completion and
// forgotten, the way a shard's executor treats them; every other one meets an
// emptied plan cache, so the full search path serves as many as the cache
// does — and then requires that nothing keyed by query survived: no endpoints
// on the graph, no attachments or merges in the controller, no sink accounts
// in the ledger, a plan cache within its cap, and a live heap that stopped
// growing once the working set was warm. The heap check covers what no
// accessor reaches (the cost model used to keep every query's full
// expression by id, forever).
func TestServedSearchesLeaveNoPerQueryState(t *testing.T) {
	r := newRig(t, qsm.ShareAll, 0)
	r.mgr.Unit = qsm.UnitUQ
	suites := [][][]string{
		{{"A", "B"}, {"A", "B", "C"}},
		{{"B", "C"}, {"A", "B", "C"}, {"A", "B"}},
		{{"B", "C"}},
	}
	serve := func(n, from int) {
		for i := from; i < from+n; i++ {
			uq := &cq.UQ{ID: fmt.Sprintf("UQ%d", i), K: 10}
			for j, rels := range suites[i%len(suites)] {
				uq.CQs = append(uq.CQs, chainQ(fmt.Sprintf("%s.CQ%d", uq.ID, j+1), rels...))
			}
			if i%2 == 1 {
				r.mgr.ResetPlanCache()
			}
			r.mgr.SyncCatalog()
			if _, err := r.mgr.Admit([]batcher.Submission{{At: r.env.Clock.Now(), UQ: uq}}, mqo.Config{K: 10}); err != nil {
				t.Fatal(err)
			}
			for r.ctrl.RunRound() {
			}
			r.ctrl.Forget(uq.ID)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const warm, more = 500, 6000
	serve(warm, 0)
	before := liveHeap()
	serve(more, warm)
	after := liveHeap()

	if n := len(r.graph.Endpoints()); n != 0 {
		t.Errorf("plan graph keeps %d endpoints of forgotten queries", n)
	}
	if n := r.ctrl.Attached(); n != 0 {
		t.Errorf("controller keeps %d endpoint attachments", n)
	}
	if n := len(r.ctrl.Merges()); n != 0 {
		t.Errorf("controller keeps %d merges", n)
	}
	execs := 0
	for _, n := range r.graph.Nodes() {
		if _, ok := r.ctrl.HasExec(n); ok {
			execs++
		}
	}
	if got := r.mgr.State.Ledger.Accounts(); got != execs {
		t.Errorf("ledger holds %d live accounts for %d node execs: sink accounts leaked", got, execs)
	}
	if st := r.mgr.PlanCacheStats(); st.Entries > len(suites) {
		t.Errorf("plan cache holds %d entries for %d recurring searches", st.Entries, len(suites))
	}
	growth := int64(after) - int64(before)
	if growth > 256<<10 {
		t.Errorf("live heap grew %d KB over %d served-and-forgotten searches", growth>>10, more)
	}
	t.Logf("live heap %d KB -> %d KB over %d searches", before>>10, after>>10, more)
}
