package qsm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/batcher"
	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/scoring"
	"repro/internal/tuple"
	"repro/internal/workload"
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
func planOnce(t *testing.T, m *Manager, n int) (res *mqo.Result, hit bool) {
	t.Helper()
	report := &AdmitReport{}
	out := m.optimizeGroups([]optGroup{{qs: cacheSuite(n).CQs}}, mqo.Config{K: 10}, report)
	if out[0].err != nil {
		t.Fatal(out[0].err)
	}
	if report.PlanCacheHits+report.PlanCacheMisses != 1 {
		t.Fatalf("one group reported hits=%d misses=%d", report.PlanCacheHits, report.PlanCacheMisses)
	}
	return out[0].result(), report.PlanCacheHits == 1
}

// optimizeOnce is what the search returns for arrival n on the live catalog.
func optimizeOnce(t *testing.T, m *Manager, n int) *mqo.Result {
	t.Helper()
	res, err := mqo.Optimize(cacheSuite(n).CQs, m.CM, mqo.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assignment is PlanString without the cost line: the plan itself.
func assignment(res *mqo.Result) string {
	s := PlanString(res)
	return s[strings.IndexByte(s, '\n')+1:]
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

// setStreamed moves key's buffered prefix to n, down as well as up.
func setStreamed(cat *catalog.Catalog, key string, n int) {
	cat.ForgetStreamed(key)
	cat.RecordStreamed(key, n)
}

// What a lookup after a catalog event must do.
const (
	unchanged = iota // a plain hit
	rowCounts        // only row counts moved: re-priced and served, or searched again
	searched         // searched again
)

// TestPlanCacheInvalidation walks every way the catalog feedback behind a
// cached decision can change. A lookup after the event must serve exactly
// what mqo.Optimize returns on the live catalog, cost included, and be the
// kind of lookup the event allows: a change of row counts alone is either
// re-priced and served or searched again (TestPlanCacheRowCountFlip has one
// that must be searched again), a changed observed cardinality is searched
// again, and a spill eviction keeps the prefix accounting, so it leaves the
// entry as it was.
// The arrival after that, under the now-settled catalog, must be a plain
// hit.
func TestPlanCacheInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spill bool
		event func(t *testing.T, m *Manager, env *operator.Env)
		want  int
	}{
		{"section 6.1 feedback", false, func(t *testing.T, m *Manager, env *operator.Env) {
			// A deeper query reads further into the shared streams; SyncCatalog
			// raises their buffered prefixes.
			uq := cacheSuite(100)
			uq.K = 150
			runInternalUQ(t, m, env, uq)
		}, rowCounts},
		{"discard eviction", false, func(t *testing.T, m *Manager, env *operator.Env) {
			m.MemoryBudget = 1
			m.EnforceBudget()
			m.MemoryBudget = 0
			if m.Evictions() == 0 {
				t.Fatal("nothing evicted")
			}
		}, rowCounts},
		{"spill eviction", true, func(t *testing.T, m *Manager, env *operator.Env) {
			m.MemoryBudget = 1
			m.EnforceBudget()
			m.MemoryBudget = 0
			if m.Evictions() == 0 || env.Metrics.Snapshot().SpillSegsWritten == 0 {
				t.Fatal("nothing spilled")
			}
		}, unchanged},
		{"spill segment lost", false, func(t *testing.T, m *Manager, env *operator.Env) {
			m.ATC.SpillLost(streamedKey(t, m))
		}, rowCounts},
		{"topic import", false, func(t *testing.T, m *Manager, env *operator.Env) {
			// Another engine's checkpoint of the same query, imported once
			// eviction has emptied this one: its stream segments reinstall
			// the buffered prefixes the eviction forgot.
			donor, denv := internalRig(t)
			runInternalUQ(t, donor, denv, cacheSuite(1))
			exp := donor.CheckpointExport()
			m.MemoryBudget = 1
			m.EnforceBudget()
			m.MemoryBudget = 0
			planOnce(t, m, 200) // settle on the post-eviction catalog
			if _, hit := planOnce(t, m, 201); !hit {
				t.Fatal("no hit between eviction and import")
			}
			if installed, _ := m.ImportSegments(exp); installed == 0 {
				t.Fatal("nothing imported")
			}
		}, rowCounts},
		{"observed cardinality", false, func(t *testing.T, m *Manager, env *operator.Env) {
			m.Cat.RecordExprCard(streamedKey(t, m), 7)
		}, searched},
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
			if _, hit := planOnce(t, m, 3); !hit {
				t.Fatal("the repeat of a planned query under an unchanged catalog missed")
			}

			tc.event(t, m, env)

			want := optimizeOnce(t, m, 4)
			before := m.PlanCacheStats()
			got, hit := planOnce(t, m, 4)
			after := m.PlanCacheStats()
			if g, w := PlanString(got), PlanString(want); g != w {
				t.Fatalf("lookup after the event served\n%s\nmqo.Optimize returns\n%s", g, w)
			}
			rechecked, stale := after.Rechecked-before.Rechecked, after.Stale-before.Stale
			t.Logf("hit=%v rechecked=%d stale=%d", hit, rechecked, stale)
			ok := false
			switch tc.want {
			case unchanged:
				ok = hit && rechecked == 0 && stale == 0
			case rowCounts:
				ok = hit && rechecked == 1 && stale == 0 || !hit && rechecked == 0 && stale == 1
			case searched:
				ok = !hit && rechecked == 0 && stale == 1
			}
			if !ok {
				t.Fatalf("lookup after the event: hit=%v, %d re-priced, %d stale; not what the event allows (case %d)", hit, rechecked, stale, tc.want)
			}
			if after.Hits+after.Misses != before.Hits+before.Misses+1 {
				t.Fatalf("stats %+v -> %+v: one lookup must count once", before, after)
			}
			if _, hit := planOnce(t, m, 5); !hit || m.PlanCacheStats().Rechecked != after.Rechecked {
				t.Fatal("the next arrival under the settled catalog was not a plain hit")
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
	m.EnforceBudget()
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

// TestDirectGraftKeepsScope runs the recurring query under ATC-CQ, where
// each conjunctive query grafts into its own scope: a plan-cache hit must
// still build in the arrival's scope, never graft onto another query's nodes.
func TestDirectGraftKeepsScope(t *testing.T) {
	m, env := internalRig(t)
	m.Mode = ShareNone
	for n := 1; n <= 4; n++ {
		uq := cacheSuite(n)
		if _, err := m.Admit([]batcher.Submission{{At: env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
			t.Fatal(err)
		}
		for _, q := range uq.CQs {
			if key := m.Graph.Endpoint(q.ID).Node.Key; !strings.HasPrefix(key, q.ID+"::") {
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

// suiteGroup is one user query of a bundled suite, planned as one group
// over a private fork of the suite's catalog.
type suiteGroup struct {
	name  string
	order []*cq.CQ
	cfg   mqo.Config
	cat   *catalog.Catalog
}

// fork returns a fresh catalog fork and cost model for the group.
func (g suiteGroup) fork() (*catalog.Catalog, *costmodel.Model) {
	cat := g.cat.Fork()
	return cat, costmodel.New(cat, costmodel.DefaultParams())
}

func (g suiteGroup) key() planKey {
	return planKey{bodies: string(appendBodies(nil, g.order)), cfg: g.cfg.Defaults()}
}

// lookup looks the group up in c the way optimizeGroups does, and returns
// the served assignment bound to the group's queries.
func (g suiteGroup) lookup(c *planCache, cm *costmodel.Model) (*planEntry, *mqo.Result) {
	e, res := c.lookup(appendBodies(nil, g.order), g.cfg.Defaults(), g.order, cm)
	if e != nil && res == nil {
		res = e.bind(g.order)
	}
	return e, res
}

func (g suiteGroup) optimize(t *testing.T, cm *costmodel.Model) *mqo.Result {
	t.Helper()
	res, err := mqo.Optimize(g.order, cm, g.cfg)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	return res
}

// suiteGroups lists the user queries of the bio, Pfam and GUS suites.
func suiteGroups(t *testing.T) (out []suiteGroup) {
	t.Helper()
	for _, name := range []string{"bio", "pfam", "gus"} {
		w, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, uq := range w.UQs() {
			out = append(out, suiteGroup{name: name + "/" + uq.ID, order: mqo.CanonicalOrder(uq.CQs),
				cfg: mqo.Config{K: uq.K}, cat: w.Catalog})
		}
	}
	return out
}

// TestPlanCacheRowCountFlip buffers the whole depth of one stream-priced key
// of a suite group at a time until the search picks another plan. The entry
// planned before the change must then be searched again, not re-priced.
func TestPlanCacheRowCountFlip(t *testing.T) {
	for _, g := range suiteGroups(t) {
		for _, d := range g.optimize(t, costmodel.New(g.cat.Fork(), costmodel.DefaultParams())).Depths {
			cat, cm := g.fork()
			c := newPlanCache()
			old := g.optimize(t, cm)
			c.insert(newPlanEntry(g.key(), g.order, old, cat))
			cat.RecordStreamed(d.Key, int(d.Max)+1)
			if assignment(g.optimize(t, cm)) == assignment(old) {
				continue
			}
			if e, _ := g.lookup(c, cm); e != nil || c.stats.Stale != 1 || c.stats.Rechecked != 0 {
				t.Fatalf("%s: buffering %s changed the plan, yet the lookup served the old one (%+v)", g.name, d.Key, c.stats)
			}
			return
		}
	}
	t.Fatal("no buffered prefix changes any suite group's plan")
}

// TestPlanCacheRecheckProperty plans every suite group and then, round after
// round, moves one to three of its stream-priced keys to random row counts
// around their depths, down as well as up. Every lookup the certificate
// serves must be exactly what mqo.Optimize returns on the live catalog,
// cost included, also after earlier rounds carried the bound; and both
// outcomes, re-priced and searched again, must occur.
func TestPlanCacheRecheckProperty(t *testing.T) {
	rng := dist.New(46)
	rechecked, searched := 0, 0
	for _, g := range suiteGroups(t) {
		cat, cm := g.fork()
		c := newPlanCache()
		var e *planEntry
		for round := 0; round < 6; round++ {
			if e == nil {
				e = newPlanEntry(g.key(), g.order, g.optimize(t, cm), cat)
				c.insert(e)
			}
			var priced []planRead
			for _, r := range e.reads {
				if r.dmax > 0 {
					priced = append(priced, r)
				}
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				r := priced[rng.Intn(len(priced))]
				setStreamed(cat, r.key, rng.Intn(2*int(r.dmax)+2))
			}
			before := c.stats
			_, got := g.lookup(c, cm)
			switch {
			case c.stats.Rechecked > before.Rechecked:
				rechecked++
				if gs, ws := PlanString(got), PlanString(g.optimize(t, cm)); gs != ws {
					t.Fatalf("%s round %d: the re-priced entry served\n%s\nmqo.Optimize returns\n%s", g.name, round, gs, ws)
				}
			case c.stats.Stale > before.Stale:
				searched++
				e = nil
			}
		}
	}
	t.Logf("%d lookups re-priced and served, %d searched again", rechecked, searched)
	if rechecked == 0 || searched == 0 {
		t.Fatal("the property is vacuous: it needs both outcomes")
	}
}

// TestPlanCacheGenerationProperty plans every suite group and then, round
// after round, makes a few random catalog writes — to its read keys and to a
// key it never read — that raise, lower, re-record or forget row counts and
// re-record or change observed cardinalities, many of them leaving every
// value as it was. Whenever the catalog is at the entry's generation (the
// lookup serves it without comparing a read), the full recheck must find
// nothing moved and nothing stale; and every lookup served, by the
// generation or by the walk, must render what mqo.Optimize returns on the
// live catalog. Both kinds of served lookup must occur.
func TestPlanCacheGenerationProperty(t *testing.T) {
	rng := dist.New(48)
	byGen, walked := 0, 0
	for _, g := range suiteGroups(t) {
		cat, cm := g.fork()
		c := newPlanCache()
		var e *planEntry
		for round := 0; round < 8; round++ {
			if e == nil {
				e = newPlanEntry(g.key(), g.order, g.optimize(t, cm), cat)
				c.insert(e)
			}
			for n := rng.Intn(4); n > 0; n-- {
				key := e.reads[rng.Intn(len(e.reads))].key
				if rng.Intn(8) == 0 {
					key = "never read"
				}
				f := cat.StreamedSoFar(key)
				switch rng.Intn(7) {
				case 0:
					cat.RecordStreamed(key, f+1+rng.Intn(8))
				case 1:
					cat.RecordStreamed(key, rng.Intn(f+1)) // no higher: a no-op
				case 2:
					setStreamed(cat, key, f) // forgotten, then restored
				case 3:
					cat.ForgetStreamed(key)
				case 4:
					if card, ok := cat.ObservedCard(key); ok {
						cat.RecordExprCard(key, card)
					}
				case 5:
					if rng.Intn(3) == 0 {
						cat.RecordExprCard(key, float64(1+rng.Intn(400)))
					}
				}
			}
			atGen := e.gen == cat.Gen()
			if moved, stale, _, _ := e.recheck(cat, cm.Params.StreamCost); atGen && (moved || stale) {
				t.Fatalf("%s round %d: the catalog is at the entry's generation, yet the recheck finds moved=%v stale=%v", g.name, round, moved, stale)
			}
			got, res := g.lookup(c, cm)
			if got == nil {
				if atGen {
					t.Fatalf("%s round %d: an entry at the catalog's generation was dropped", g.name, round)
				}
				e = nil
				continue
			}
			if atGen {
				byGen++
			} else {
				walked++
			}
			if gs, ws := PlanString(res), PlanString(g.optimize(t, cm)); gs != ws {
				t.Fatalf("%s round %d (served by the generation: %v): the cache served\n%s\nmqo.Optimize returns\n%s", g.name, round, atGen, gs, ws)
			}
		}
	}
	t.Logf("%d lookups served by the generation, %d after a walk", byGen, walked)
	if byGen == 0 || walked == 0 {
		t.Fatal("the property is vacuous: it needs both kinds of served lookup")
	}
}

// TestPlanCacheHitValidatesPositionally corrupts a settled entry four ways —
// an atom mapped out of range, onto another relation, covered twice, and no
// streaming input — and sends the recurring query through it. The hit,
// unbound, must fail with mqo.Validate's error over the bound assignment,
// and an admission through it with that error, wrapped.
func TestPlanCacheHitValidatesPositionally(t *testing.T) {
	m, env := internalRig(t)
	runInternalUQ(t, m, env, cacheSuite(1))
	m.ATC.Forget("U1")
	n := 1
	lookup := func() optResult {
		t.Helper()
		n++
		out := m.optimizeGroups([]optGroup{{qs: cacheSuite(n).CQs}}, mqo.Config{K: 10}, &AdmitReport{})
		if out[0].err != nil {
			t.Fatal(out[0].err)
		}
		return out[0]
	}
	for r := lookup(); r.entry == nil || r.res != nil; r = lookup() {
		if n == 6 {
			t.Fatal("the recurring query never settled into an unbound hit")
		}
	}
	e := m.plans.lru.Front().Value.(*planEntry)
	valid := e.inputs
	// corrupt returns a copy of the valid inputs with the use at (i, u)
	// mapping atom ai to to.
	corrupt := func(i, u, ai, to int) []planInput {
		ins := slices.Clone(valid)
		ins[i].uses = slices.Clone(ins[i].uses)
		ins[i].uses[u].atomOf = slices.Clone(ins[i].uses[u].atomOf)
		ins[i].uses[u].atomOf[ai] = to
		return ins
	}
	mismatch := func() []planInput {
		order := mqo.CanonicalOrder(cacheSuite(0).CQs)
		for i, in := range valid {
			for u, use := range in.uses {
				for to, a := range order[use.pos].Atoms {
					if a.Rel != in.expr.Atoms[0].Rel {
						return corrupt(i, u, 0, to)
					}
				}
			}
		}
		t.Fatal("no use can be mapped onto another relation")
		return nil
	}
	probes := slices.Clone(valid)
	for i := range probes {
		probes[i].mode = costmodel.Probe
	}
	for _, tc := range []struct {
		name   string
		inputs []planInput
		want   string
	}{
		{"atom out of range", corrupt(0, 0, 0, 99), "maps atom out of range"},
		{"relation mismatch", mismatch(), "relation mismatch"},
		{"atom covered twice", append(slices.Clone(valid), valid[0]), "covered 2 times"},
		{"no stream", probes, "has no streaming input"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e.inputs = tc.inputs
			defer func() { e.inputs = valid }()
			r := lookup()
			if r.entry != e || r.res != nil {
				t.Fatal("the corrupted entry was not served as an unbound hit")
			}
			want := mqo.Validate(r.order, e.bind(r.order).Inputs)
			got := r.validate()
			if want == nil || !strings.Contains(want.Error(), tc.want) {
				t.Fatalf("mqo.Validate over the bound assignment: %v; want an error on %q", want, tc.want)
			}
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("the hit's validation: %v\nmqo.Validate over the bound assignment: %v", got, want)
			}
			n++
			uq := cacheSuite(n)
			order := mqo.CanonicalOrder(uq.CQs)
			want = mqo.Validate(order, e.bind(order).Inputs)
			_, err := m.Admit([]batcher.Submission{{At: env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K})
			if err == nil || want == nil || err.Error() != fmt.Sprintf("qsm: invalid assignment for %q: %v", "", want) {
				t.Fatalf("admission through the hit: %v, want mqo.Validate's %v", err, want)
			}
		})
	}
	if r := lookup(); r.entry != e || r.validate() != nil {
		t.Fatal("the restored entry no longer validates")
	}
}
