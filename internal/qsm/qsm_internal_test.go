package qsm

// Internal tests pinning the state subsystem against the pre-subsystem
// implementation: the ledger's running totals must equal the O(graph)
// recomputation at every step, and the LRU victim over ledger-sized nodes
// must be exactly the one the old StateSize-rescanning pickVictim chose, in
// the same order.

import (
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
	"repro/internal/relationdb"
	"repro/internal/remotedb"
	"repro/internal/scoring"
	"repro/internal/simclock"
	"repro/internal/tuple"
)

// legacyStateSize is the pre-subsystem accounting: a full rescan of the
// graph's execs plus the attached endpoints.
func legacyStateSize(m *Manager) int {
	total := m.ATC.SinkStateRows()
	for _, n := range m.Graph.Nodes() {
		if x, ok := m.ATC.HasExec(n); ok {
			total += x.StateSize()
		}
	}
	return total
}

// legacyPickVictim is a verbatim replica of the old eviction choice: walk
// the graph in creation order, skip live or pinned nodes, recompute each
// node's StateSize, keep the oldest last use with size as tie-break.
func legacyPickVictim(m *Manager) *plangraph.Node {
	var best *plangraph.Node
	bestUse, bestSize := 0, 0
	for _, n := range m.Graph.Nodes() {
		x, ok := m.ATC.HasExec(n)
		if !ok || x.HasWork() || len(n.Consumers) > 0 {
			continue
		}
		if m.Graph.HasEndpointOn(n) {
			continue
		}
		size := x.StateSize()
		if size == 0 {
			continue
		}
		use := m.lastUse[n]
		if best == nil || use < bestUse || (use == bestUse && size > bestSize) {
			best, bestUse, bestSize = n, use, size
		}
	}
	return best
}

func internalRig(t *testing.T) (*Manager, *operator.Env) {
	t.Helper()
	rng := dist.New(31)
	store := relationdb.NewStore("db")
	cat := catalog.New()
	for _, name := range []string{"A", "B", "C", "D"} {
		s := tuple.NewSchema(name,
			tuple.Column{Name: "a", Type: tuple.KindInt},
			tuple.Column{Name: "b", Type: tuple.KindInt},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
		)
		var rows []*tuple.Tuple
		for i := 0; i < 220; i++ {
			rows = append(rows, tuple.New(s, tuple.Int(int64(rng.Intn(55))), tuple.Int(int64(rng.Intn(55))), tuple.Float(0.2+0.8*rng.Float64())))
		}
		rel := relationdb.NewRelation(s, rows)
		store.Put(rel)
		cat.AddRelation("db", rel)
	}
	env := &operator.Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(5)), Metrics: &metrics.Counters{}}
	graph := plangraph.New("")
	ctrl := atc.New(graph, env, remotedb.NewFleet(remotedb.New(store)))
	mgr := New(graph, ctrl, cat, costmodel.New(cat, costmodel.DefaultParams()), ShareAll)
	return mgr, env
}

func internalChainQ(id string, rels ...string) *cq.CQ {
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

func runInternalUQ(t *testing.T, m *Manager, env *operator.Env, uq *cq.UQ) {
	t.Helper()
	if _, err := m.Admit([]batcher.Submission{{At: env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
		t.Fatalf("admit %s: %v", uq.ID, err)
	}
	for m.ATC.RunRound() {
	}
	m.SyncCatalog()
}

// TestLedgerMatchesLegacyAccounting drives several overlapping queries
// through the engine and checks, after every lifecycle step, that the
// running ledger equals the pre-subsystem rescan.
func TestLedgerMatchesLegacyAccounting(t *testing.T) {
	m, env := internalRig(t)
	queries := []*cq.UQ{
		{ID: "U1", K: 10, CQs: []*cq.CQ{internalChainQ("U1.CQ1", "A", "B")}},
		{ID: "U2", K: 10, CQs: []*cq.CQ{internalChainQ("U2.CQ1", "B", "C"), internalChainQ("U2.CQ2", "A", "B", "C")}},
		{ID: "U3", K: 15, CQs: []*cq.CQ{internalChainQ("U3.CQ1", "C", "D")}},
		{ID: "U4", K: 10, CQs: []*cq.CQ{internalChainQ("U4.CQ1", "A", "B")}},
	}
	for _, uq := range queries {
		runInternalUQ(t, m, env, uq)
		if got, want := m.StateSize(), legacyStateSize(m); got != want {
			t.Fatalf("after %s: ledger %d != legacy rescan %d", uq.ID, got, want)
		}
		if got, want := m.StateSize(), m.AuditStateSize(); got != want {
			t.Fatalf("after %s: ledger %d != audit %d", uq.ID, got, want)
		}
	}
	if m.StateSize() == 0 {
		t.Fatal("no retained state accumulated; test is vacuous")
	}
}

// TestEnforceBudgetMatchesLegacy pins victim equivalence: on a seeded graph
// with retained state, the ledger-driven LRU eviction must pick the same
// victims in the same order as the old O(nodes²) implementation.
func TestEnforceBudgetMatchesLegacy(t *testing.T) {
	m, env := internalRig(t)
	runInternalUQ(t, m, env, &cq.UQ{ID: "U1", K: 10, CQs: []*cq.CQ{internalChainQ("U1.CQ1", "A", "B")}})
	runInternalUQ(t, m, env, &cq.UQ{ID: "U2", K: 10, CQs: []*cq.CQ{internalChainQ("U2.CQ1", "B", "C")}})
	runInternalUQ(t, m, env, &cq.UQ{ID: "U3", K: 10, CQs: []*cq.CQ{internalChainQ("U3.CQ1", "C", "D"), internalChainQ("U3.CQ2", "A", "B", "C")}})

	const budget = 40
	var evicted []string
	steps := 0
	for legacyStateSize(m) > budget {
		steps++
		if steps > 1000 {
			t.Fatal("eviction did not converge")
		}
		want, got := legacyPickVictim(m), m.victim()
		if want == nil {
			if got != nil {
				t.Fatalf("legacy declines but subsystem picks %s", got.Key)
			}
			break
		}
		if got == nil {
			t.Fatalf("subsystem declines but legacy picks %s", want.Key)
		}
		if got != want {
			t.Fatalf("victim %d: subsystem picks %s, legacy picks %s", len(evicted), got.Key, want.Key)
		}
		m.evict(got)
		evicted = append(evicted, got.Key)
		if ls, ss := legacyStateSize(m), m.StateSize(); ls != ss {
			t.Fatalf("after evicting %s: ledger %d != legacy %d", got.Key, ss, ls)
		}
	}
	if len(evicted) < 2 {
		t.Fatalf("only %d evictions exercised (state too small for budget %d)", len(evicted), budget)
	}
	// The public entry point arrives at the same end state.
	m2, env2 := internalRig(t)
	runInternalUQ(t, m2, env2, &cq.UQ{ID: "U1", K: 10, CQs: []*cq.CQ{internalChainQ("U1.CQ1", "A", "B")}})
	runInternalUQ(t, m2, env2, &cq.UQ{ID: "U2", K: 10, CQs: []*cq.CQ{internalChainQ("U2.CQ1", "B", "C")}})
	runInternalUQ(t, m2, env2, &cq.UQ{ID: "U3", K: 10, CQs: []*cq.CQ{internalChainQ("U3.CQ1", "C", "D"), internalChainQ("U3.CQ2", "A", "B", "C")}})
	m2.MemoryBudget = budget
	m2.EnforceBudget()
	if m2.Evictions() != len(evicted) {
		t.Fatalf("EnforceBudget evicted %d, stepwise loop evicted %d", m2.Evictions(), len(evicted))
	}
	if got, want := m2.StateSize(), m2.AuditStateSize(); got != want {
		t.Fatalf("post-enforcement ledger %d != audit %d", got, want)
	}
}

// TestVictimOrder pins §6.3's order on its own terms: the oldest last use
// wins even over larger state, the larger state wins a tie in last use, and
// no victim is named when nothing idle holds state.
func TestVictimOrder(t *testing.T) {
	m, env := internalRig(t)
	if n := m.victim(); n != nil {
		t.Fatalf("an empty graph names victim %s", n.Key)
	}
	runInternalUQ(t, m, env, &cq.UQ{ID: "U1", K: 10, CQs: []*cq.CQ{internalChainQ("U1.CQ1", "A", "B")}})
	runInternalUQ(t, m, env, &cq.UQ{ID: "U2", K: 10, CQs: []*cq.CQ{internalChainQ("U2.CQ1", "C", "D")}})

	var cands []*plangraph.Node
	rows := map[*plangraph.Node]int64{}
	for _, n := range m.Graph.Nodes() {
		if x, ok := m.ATC.HasExec(n); ok && !x.HasWork() && m.Graph.Evictable(n) && x.Account().Rows() > 0 {
			cands = append(cands, n)
			rows[n] = x.Account().Rows()
		}
	}
	largest, smallest := cands[0], cands[0]
	for _, n := range cands {
		if rows[n] > rows[largest] {
			largest = n
		}
		if rows[n] < rows[smallest] {
			smallest = n
		}
	}
	if rows[largest] == rows[smallest] {
		t.Fatalf("the %d candidates all hold %d rows; the case proves nothing", len(cands), rows[largest])
	}
	for _, n := range cands {
		m.lastUse[n] = 7
	}
	if got := m.victim(); got != largest {
		t.Fatalf("tie in last use: victim %s (%d rows), want the larger %s (%d rows)", got.Key, rows[got], largest.Key, rows[largest])
	}
	m.lastUse[smallest] = 3
	if got := m.victim(); got != smallest {
		t.Fatalf("victim %s, want %s, used least recently", got.Key, smallest.Key)
	}

	for steps := 0; ; steps++ {
		n := m.victim()
		if n == nil {
			break
		}
		if steps > 1000 {
			t.Fatal("eviction did not converge")
		}
		m.evict(n)
	}
	for _, n := range m.Graph.Nodes() {
		if x, ok := m.ATC.HasExec(n); ok && !x.HasWork() && m.Graph.Evictable(n) && x.Account().Rows() > 0 {
			t.Fatalf("no victim named while %s holds %d idle rows", n.Key, x.Account().Rows())
		}
	}
}

// TestDirtySyncReRecordsSiblingStreams covers the one way a stream exec's
// catalog count can be lost while nothing marks it: under ShareNone two
// scopes stream the same expressions, and discarding one scope's streams
// forgets the expressions' counts. The next sync must record the other
// scope's positions again, exactly as a walk of the whole graph does.
func TestDirtySyncReRecordsSiblingStreams(t *testing.T) {
	m, env := internalRig(t)
	m.Mode = ShareNone
	runInternalUQ(t, m, env, &cq.UQ{ID: "U1", K: 40, CQs: []*cq.CQ{internalChainQ("U1.CQ1", "A", "B")}})
	runInternalUQ(t, m, env, &cq.UQ{ID: "U2", K: 5, CQs: []*cq.CQ{internalChainQ("U2.CQ1", "A", "B")}})
	var streams, joins []*plangraph.Node
	for _, n := range m.Graph.Nodes() {
		if !strings.Contains(n.Key, "U1.CQ1") {
			continue
		}
		if n.Kind == plangraph.SourceStream {
			streams = append(streams, n)
		} else {
			joins = append(joins, n)
		}
	}
	if len(streams) != 2 {
		t.Fatalf("scope U1.CQ1 holds %d streams, want 2", len(streams))
	}
	for _, n := range append(joins, streams...) {
		m.evict(n)
	}
	forgotten := 0
	for _, n := range streams {
		if m.Cat.StreamedSoFar(n.Expr.Key()) == 0 {
			forgotten++
		}
	}
	if forgotten == 0 {
		t.Fatal("the discard forgot no count; the case proves nothing")
	}
	m.SyncCatalog()
	for _, n := range streams {
		key := n.Expr.Key()
		synced := m.Cat.StreamedSoFar(key)
		FullSyncCatalog(m)
		if full := m.Cat.StreamedSoFar(key); synced == 0 || full != synced {
			t.Fatalf("%s: the sync recorded %d streamed, a full walk %d", key, synced, full)
		}
	}
}
