package qsm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/batcher"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/scoring"
	"repro/internal/tuple"
)

// cacheSuite is the recurring user query of the plan cache tests, rebuilt
// with fresh ids (and fresh *cq.CQ objects) at every arrival the way the
// front desk does.
func cacheSuite(n int) *cq.UQ {
	id := fmt.Sprintf("U%d", n)
	return &cq.UQ{ID: id, K: 10, CQs: []*cq.CQ{
		internalChainQ(id+".CQ1", "A", "B"),
		internalChainQ(id+".CQ2", "A", "B", "C"),
	}}
}

// planOnce sends one arrival of the recurring query through the cache.
func planOnce(t *testing.T, m *Manager, n int) (hit bool) {
	t.Helper()
	report := &AdmitReport{}
	out := m.optimizeGroups([]optGroup{{qs: cacheSuite(n).CQs}}, mqo.Config{K: 10}, report)
	if out[0].err != nil {
		t.Fatal(out[0].err)
	}
	if report.PlanCacheHits+report.PlanCacheMisses != 1 {
		t.Fatalf("one group reported hits=%d misses=%d", report.PlanCacheHits, report.PlanCacheMisses)
	}
	return report.PlanCacheHits == 1
}

// streamedKey returns the expression key of a stream source the catalog
// prices as partly buffered.
func streamedKey(t *testing.T, m *Manager) string {
	t.Helper()
	for _, n := range m.Graph.Nodes() {
		if n.Kind == plangraph.SourceStream && m.Cat.StreamedSoFar(n.Expr.Key()) > 0 {
			return n.Expr.Key()
		}
	}
	t.Fatal("no stream with a buffered prefix")
	return ""
}

// TestPlanCacheInvalidation walks every way the catalog feedback behind a
// cached decision can change and requires the next lookup to be a miss that
// found a stale entry — and the one after it, under the now-settled catalog,
// to be a hit again. A spill eviction keeps the prefix accounting, so it must
// leave the entry valid.
func TestPlanCacheInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spill bool
		event func(t *testing.T, m *Manager, env *operator.Env)
		stale bool
	}{
		{"section 6.1 feedback", false, func(t *testing.T, m *Manager, env *operator.Env) {
			// A deeper query reads further into the shared streams; SyncCatalog
			// raises their buffered prefixes.
			uq := cacheSuite(100)
			uq.K = 150
			runInternalUQ(t, m, env, uq)
		}, true},
		{"discard eviction", false, func(t *testing.T, m *Manager, env *operator.Env) {
			m.MemoryBudget = 1
			m.EnforceBudget(m.ATC.Epoch())
			m.MemoryBudget = 0
			if m.Evictions() == 0 {
				t.Fatal("nothing evicted")
			}
		}, true},
		{"spill eviction", true, func(t *testing.T, m *Manager, env *operator.Env) {
			m.MemoryBudget = 1
			m.EnforceBudget(m.ATC.Epoch())
			m.MemoryBudget = 0
			if m.Evictions() == 0 || env.Metrics.Snapshot().SpillSegsWritten == 0 {
				t.Fatal("nothing spilled")
			}
		}, false},
		{"spill segment lost", false, func(t *testing.T, m *Manager, env *operator.Env) {
			m.ATC.SpillLost(streamedKey(t, m))
		}, true},
		{"topic import", false, func(t *testing.T, m *Manager, env *operator.Env) {
			// Another engine's checkpoint of the same query, imported once
			// eviction has emptied this one: its stream segments reinstall
			// the buffered prefixes the eviction forgot.
			donor, denv := internalRig(t)
			runInternalUQ(t, donor, denv, cacheSuite(1))
			exp := donor.CheckpointExport()
			m.MemoryBudget = 1
			m.EnforceBudget(m.ATC.Epoch())
			m.MemoryBudget = 0
			planOnce(t, m, 200) // settle on the post-eviction catalog
			if !planOnce(t, m, 201) {
				t.Fatal("no hit between eviction and import")
			}
			if installed, _ := m.ImportSegments(exp); installed == 0 {
				t.Fatal("nothing imported")
			}
		}, true},
		{"observed cardinality", false, func(t *testing.T, m *Manager, env *operator.Env) {
			m.Cat.RecordExprCard(streamedKey(t, m), 7)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, env := internalRig(t)
			if tc.spill {
				if err := m.EnableSpill(t.TempDir(), m.DefaultResolver()); err != nil {
					t.Fatal(err)
				}
				defer m.State.Close() //nolint:errcheck
			}
			runInternalUQ(t, m, env, cacheSuite(1))
			m.ATC.Forget("U1")
			planOnce(t, m, 2)
			if !planOnce(t, m, 3) {
				t.Fatal("the repeat of a planned query under an unchanged catalog missed")
			}

			tc.event(t, m, env)

			before := m.PlanCacheStats()
			hit := planOnce(t, m, 4)
			after := m.PlanCacheStats()
			if tc.stale {
				if hit || after.Stale != before.Stale+1 {
					t.Fatalf("lookup after the event: hit=%v stale %d -> %d; want a miss on a stale entry", hit, before.Stale, after.Stale)
				}
				if !planOnce(t, m, 5) {
					t.Fatal("the replanned entry did not serve the next arrival")
				}
			} else if !hit || after.Stale != before.Stale {
				t.Fatalf("lookup after the event: hit=%v stale %d -> %d; want a hit", hit, before.Stale, after.Stale)
			}
			if after.Hits+after.Misses != before.Hits+before.Misses+1 {
				t.Fatalf("stats %+v -> %+v: one lookup must count once", before, after)
			}
		})
	}
}

// TestPlanCacheLRUBound plans more distinct groups than the cap holds: the
// cache never grows past it, the coldest entries go first, and a lookup
// refreshes its entry's recency.
func TestPlanCacheLRUBound(t *testing.T) {
	m, _ := internalRig(t)
	// Distinct bodies: the same join under a different selection constant.
	group := func(i int) []*cq.CQ {
		q := internalChainQ(fmt.Sprintf("q%d", i), "A", "B")
		q.Atoms[1].Args[2] = cq.C(tuple.Int(int64(i)))
		q.Model = scoring.QSystem(0, []float64{1, 1})
		return []*cq.CQ{q}
	}
	plan := func(i int) bool {
		report := &AdmitReport{}
		if out := m.optimizeGroups([]optGroup{{qs: group(i)}}, mqo.Config{}, report); out[0].err != nil {
			t.Fatal(out[0].err)
		}
		return report.PlanCacheHits == 1
	}
	total := planCacheCap + 40
	for i := 0; i < total; i++ {
		if plan(i) {
			t.Fatalf("first arrival of group %d hit", i)
		}
		if i == planCacheCap-1 && !plan(0) {
			t.Fatal("group 0 fell out before the cache was full")
		}
		if n := m.PlanCacheStats().Entries; n > planCacheCap {
			t.Fatalf("after %d groups the cache holds %d entries, cap %d", i+1, n, planCacheCap)
		}
	}
	if n := m.PlanCacheStats().Entries; n != planCacheCap {
		t.Fatalf("cache holds %d entries, want the cap %d", n, planCacheCap)
	}
	if !plan(total - 1) {
		t.Fatal("the most recent group missed")
	}
	if !plan(0) {
		t.Fatal("group 0 was refreshed when the cache filled, yet fell out before 40 colder entries")
	}
	if plan(1) {
		t.Fatal("group 1, the coldest entry, survived 40 evictions")
	}
}

// TestPlanCacheBatchDedup admits one batch holding the same user query twice
// (plus a different one): the equal-key groups pay for one search between
// them, and the report still carries one candidate count per group.
func TestPlanCacheBatchDedup(t *testing.T) {
	m, env := internalRig(t)
	m.Unit = UnitUQ
	lone, err := mqo.Optimize(cacheSuite(0).CQs, m.CM, mqo.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	other := &cq.UQ{ID: "U9", K: 10, CQs: []*cq.CQ{internalChainQ("U9.CQ1", "C", "D")}}
	otherAlone, err := mqo.Optimize(other.CQs, m.CM, mqo.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	subs := []batcher.Submission{
		{At: env.Clock.Now(), UQ: cacheSuite(1)},
		{At: env.Clock.Now(), UQ: other},
		{At: env.Clock.Now(), UQ: cacheSuite(2)},
	}
	rep, err := m.Admit(subs, mqo.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanCacheMisses != 2 || rep.PlanCacheHits != 1 {
		t.Fatalf("batch of two equal groups and one other: misses=%d hits=%d, want 2 and 1", rep.PlanCacheMisses, rep.PlanCacheHits)
	}
	if want := lone.SearchNodes + otherAlone.SearchNodes; rep.SearchNodes != want {
		t.Fatalf("SearchNodes = %d, want the two searches run (%d)", rep.SearchNodes, want)
	}
	if want := fmt.Sprint([]int{lone.CandidateCount, otherAlone.CandidateCount, lone.CandidateCount}); fmt.Sprint(rep.CandidatesPerGroup) != want {
		t.Fatalf("CandidatesPerGroup = %v, want %s", rep.CandidatesPerGroup, want)
	}
	for m.ATC.RunRound() {
	}
	a, b := m.ATC.MergeByUQ("U1").RM.Results(), m.ATC.MergeByUQ("U2").RM.Results()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("the deduplicated twins returned %d and %d answers", len(a), len(b))
	}
	for i := range a {
		if a[i].Score != b[i].Score || a[i].Row.Identity() != b[i].Row.Identity() {
			t.Fatalf("answer %d differs between the twins", i)
		}
	}
}

// TestPlanCacheTenGroupBatch admits ten groups in one batch — six distinct
// bodies and four in-batch twins — and then the same ten again: the cold
// batch pays for exactly the six searches, every group of both batches
// reports once, and each twin returns its original's answers.
func TestPlanCacheTenGroupBatch(t *testing.T) {
	bodies := [][][]string{
		{{"A", "B"}, {"A", "B", "C"}},
		{{"B", "C"}},
		{{"C", "D"}, {"B", "C", "D"}},
		{{"A", "B", "C", "D"}},
		{{"A", "B"}},
		{{"B", "C"}, {"C", "D"}},
	}
	userQuery := func(id string, body [][]string) *cq.UQ {
		uq := &cq.UQ{ID: id, K: 10}
		for j, rels := range body {
			uq.CQs = append(uq.CQs, internalChainQ(fmt.Sprintf("%s.CQ%d", id, j+1), rels...))
		}
		return uq
	}
	m, env := internalRig(t)
	m.Unit = UnitUQ
	searchNodes := 0
	for i, body := range bodies {
		lone, err := mqo.Optimize(userQuery(fmt.Sprintf("L%d", i), body).CQs, m.CM, mqo.Config{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		searchNodes += lone.SearchNodes
	}
	for round := 0; round < 2; round++ {
		var subs []batcher.Submission
		for i := 0; i < 10; i++ {
			uq := userQuery(fmt.Sprintf("R%dU%d", round, i), bodies[i%len(bodies)])
			subs = append(subs, batcher.Submission{At: env.Clock.Now(), UQ: uq})
		}
		rep, err := m.Admit(subs, mqo.Config{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && (rep.PlanCacheMisses != len(bodies) || rep.PlanCacheHits != 10-len(bodies) || rep.SearchNodes != searchNodes) {
			t.Fatalf("cold batch: misses=%d hits=%d search nodes=%d; want %d searches for 10 groups, %d nodes",
				rep.PlanCacheMisses, rep.PlanCacheHits, rep.SearchNodes, len(bodies), searchNodes)
		}
		if rep.PlanCacheHits+rep.PlanCacheMisses != 10 || len(rep.CandidatesPerGroup) != 10 {
			t.Fatalf("batch %d: hits=%d misses=%d, %d candidate counts; want one of each per group",
				round, rep.PlanCacheHits, rep.PlanCacheMisses, len(rep.CandidatesPerGroup))
		}
		for m.ATC.RunRound() {
		}
		m.SyncCatalog()
		answers := make([]string, len(subs))
		for i, s := range subs {
			for _, r := range m.ATC.MergeByUQ(s.UQ.ID).RM.Results() {
				answers[i] += fmt.Sprintf("%v %s\n", r.Score, r.Row.Identity())
			}
			m.ATC.Forget(s.UQ.ID)
		}
		for i := len(bodies); i < len(subs); i++ {
			if answers[i] == "" || answers[i] != answers[i-len(bodies)] {
				t.Fatalf("batch %d: twin %d's answers differ from group %d's", round, i, i-len(bodies))
			}
		}
	}
}

// TestDirectGraftNeedsLiveNodes pins the graft record's validity rule: a hit
// grafts from the record only while every node it names is still the live
// node under its key. A spill eviction detaches the nodes yet keeps the entry
// fresh, so the next hit must run factorize.Build; the record that Build
// leaves names the re-created nodes, and the old one — same keys, other
// nodes — no longer applies.
func TestDirectGraftNeedsLiveNodes(t *testing.T) {
	m, env := internalRig(t)
	if err := m.EnableSpill(t.TempDir(), m.DefaultResolver()); err != nil {
		t.Fatal(err)
	}
	defer m.State.Close() //nolint:errcheck
	n := 0
	arrive := func() (hit, direct bool) {
		t.Helper()
		n++
		before := m.PlanCacheStats()
		uq := cacheSuite(n)
		runInternalUQ(t, m, env, uq)
		m.ATC.Forget(uq.ID)
		after := m.PlanCacheStats()
		return after.Hits > before.Hits, after.DirectGrafts > before.DirectGrafts
	}
	for settled := false; !settled; {
		if n == 5 {
			t.Fatal("no repeat was grafted directly")
		}
		_, settled = arrive()
	}
	entry := m.plans.lru.Front().Value.(*planEntry)
	old := entry.graft

	m.MemoryBudget = 1
	m.EnforceBudget(m.ATC.Epoch())
	m.MemoryBudget = 0
	if entry.liveGraft(m.Graph) != nil {
		t.Fatal("the record of evicted nodes still applies")
	}
	if hit, direct := arrive(); !hit || direct {
		t.Fatalf("arrival after the eviction: hit=%v direct=%v; want a hit grafted by factorize.Build", hit, direct)
	}
	for _, n := range old.terminals {
		if live := m.Graph.Node(n.Key); live == nil || live == n {
			t.Fatalf("terminal %s was not re-created", n.Key)
		}
	}
	if (&planEntry{graft: old}).liveGraft(m.Graph) != nil {
		t.Fatal("a record of nodes since re-created under the same keys still applies")
	}
	if hit, direct := arrive(); !hit || !direct {
		t.Fatalf("arrival after the rebuild: hit=%v direct=%v; want a direct graft", hit, direct)
	}
}

// TestDirectGraftKeepsScope runs the recurring query under ATC-UQ, where
// each user query grafts into its own scope: a plan-cache hit must still
// build in the arrival's scope, never graft onto another query's nodes.
func TestDirectGraftKeepsScope(t *testing.T) {
	m, env := internalRig(t)
	m.Mode = ShareWithinUQ
	for n := 1; n <= 4; n++ {
		uq := cacheSuite(n)
		if _, err := m.Admit([]batcher.Submission{{At: env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
			t.Fatal(err)
		}
		for _, q := range uq.CQs {
			if key := m.Graph.Endpoint(q.ID).Node.Key; !strings.HasPrefix(key, uq.ID+"::") {
				t.Fatalf("%s ends at %s, outside its scope", q.ID, key)
			}
		}
		for m.ATC.RunRound() {
		}
		m.SyncCatalog()
		m.ATC.Forget(uq.ID)
	}
	if st := m.PlanCacheStats(); st.Hits == 0 || st.DirectGrafts != 0 {
		t.Fatalf("plan cache %+v: want hits and no direct graft", st)
	}
}
