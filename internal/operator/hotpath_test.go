package operator

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/plangraph"
	"repro/internal/relationdb"
	"repro/internal/remotedb"
	"repro/internal/scoring"
	"repro/internal/simclock"
	"repro/internal/source"
	"repro/internal/tuple"
)

// chainFixture is a three-input m-join A(x,y) ⋈ B(y,z) ⋈ C(z,w) with A and B
// stored (stream edges) and C behind a remote-probe edge — the mixed shape
// the compiled probe plans must handle.
type chainFixture struct {
	env   *Env
	x     *NodeExec
	edgeA *plangraph.Edge
	edgeB *plangraph.Edge
	rowsA []*tuple.Row
	rowsB []*tuple.Row
	relA  *relationdb.Relation
	relB  *relationdb.Relation
	relC  *relationdb.Relation
	// nodePos maps CQ atom index -> join-node expression atom position.
	nodePos []int
}

func newChainFixture(t testing.TB, seed uint64, nA, nB, nC, keys int) *chainFixture {
	q := &cq.CQ{
		ID:   "CQ-hot",
		UQID: "UQ-hot",
		Atoms: []*cq.Atom{
			{Rel: "A", DB: "db", Args: []cq.Term{cq.V(0), cq.V(1), cq.V(10)}},
			{Rel: "B", DB: "db", Args: []cq.Term{cq.V(1), cq.V(2), cq.V(11)}},
			{Rel: "C", DB: "db", Args: []cq.Term{cq.V(2), cq.V(3), cq.V(12)}},
		},
		Model: scoring.QSystem(0, []float64{1, 1, 1}),
	}

	rng := dist.New(seed)
	store := relationdb.NewStore("db")
	mkRel := func(name string, n int) *relationdb.Relation {
		s := tuple.NewSchema(name,
			tuple.Column{Name: "u", Type: tuple.KindInt},
			tuple.Column{Name: "v", Type: tuple.KindInt},
			tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
		)
		var rows []*tuple.Tuple
		for i := 0; i < n; i++ {
			rows = append(rows, tuple.New(s,
				tuple.Int(int64(rng.Intn(keys))), tuple.Int(int64(rng.Intn(keys))),
				tuple.Float(0.1+0.9*rng.Float64())))
		}
		rel := relationdb.NewRelation(s, rows)
		store.Put(rel)
		return rel
	}
	relA, relB, relC := mkRel("A", nA), mkRel("B", nB), mkRel("C", nC)
	db := remotedb.New(store)

	exprFull, mapping := q.SubExpr([]int{0, 1, 2})
	nodePos := make([]int, len(mapping))
	for ni, qi := range mapping {
		nodePos[qi] = ni
	}
	exprA, _ := q.SubExpr([]int{0})
	exprB, _ := q.SubExpr([]int{1})
	exprC, _ := q.SubExpr([]int{2})

	g := plangraph.New("")
	join := g.EnsureNode(plangraph.Join, exprFull, "db")
	srcA := g.EnsureNode(plangraph.SourceStream, exprA, "db")
	srcB := g.EnsureNode(plangraph.SourceStream, exprB, "db")
	srcC := g.EnsureNode(plangraph.SourceProbe, exprC, "db")
	edgeA := g.Connect(srcA, join, []int{nodePos[0]}, false)
	edgeB := g.Connect(srcB, join, []int{nodePos[1]}, false)
	g.Connect(srcC, join, []int{nodePos[2]}, true)

	x := NewNodeExec(join)
	ra := source.OpenRandomAccess(db, exprC)
	x.SetRAResolver(func(n *plangraph.Node) *source.RandomAccess {
		if n == srcC {
			return ra
		}
		return nil
	})

	env := &Env{
		Clock:   simclock.NewVirtual(0),
		Delays:  simclock.DefaultDelays(dist.New(seed + 1)),
		Metrics: &metrics.Counters{},
	}
	fx := &chainFixture{env: env, x: x, edgeA: edgeA, edgeB: edgeB, relA: relA, relB: relB, relC: relC, nodePos: nodePos}
	for _, tp := range relA.Rows() {
		fx.rowsA = append(fx.rowsA, tuple.NewRow(tp))
	}
	for _, tp := range relB.Rows() {
		fx.rowsB = append(fx.rowsB, tuple.NewRow(tp))
	}
	return fx
}

// runInterleaved feeds A and B arrivals alternately, one row at a time. When
// invalidate is set, every compiled plan is discarded before each arrival, so
// each probe runs on a freshly compiled plan — the reference the cached path
// must match.
func (fx *chainFixture) runInterleaved(invalidate bool) { fx.runTurns(1, invalidate) }

// runTurns feeds A and B arrivals alternately, turn rows of A then turn rows
// of B, each row handed to arrive alone.
func (fx *chainFixture) runTurns(turn int, invalidate bool) {
	feed := func(rows []*tuple.Row, edge *plangraph.Edge) {
		for _, r := range rows {
			if invalidate {
				for j := range fx.x.plans {
					fx.x.plans[j] = nil
				}
			}
			fx.x.arrive(fx.env, r, edge, 1)
		}
	}
	for lo := 0; lo < max(len(fx.rowsA), len(fx.rowsB)); lo += turn {
		feed(fx.rowsA[min(lo, len(fx.rowsA)):min(lo+turn, len(fx.rowsA))], fx.edgeA)
		feed(fx.rowsB[min(lo, len(fx.rowsB)):min(lo+turn, len(fx.rowsB))], fx.edgeB)
	}
}

// logIdentities returns the join results' identities in delivery order.
func logIdentities(l *Log) []string {
	out := make([]string, l.Len())
	for i := range out {
		out[i] = l.Row(i).Identity()
	}
	return out
}

// TestCompiledProbePlansMatchUncompiled compares a cached-plan execution
// against a recompile-before-every-arrival execution of the mixed
// stored/remote join. The two runs see different adaptive probe orders
// (recompiling uses fresher fanout statistics — the same drift the pre-
// compilation code had between its adaptEvery boundaries), so delivery order
// may differ; the result multiset and the insert count must not. Two
// identical cached runs must agree on every work counter exactly.
func TestCompiledProbePlansMatchUncompiled(t *testing.T) {
	// >64 arrivals per input so the adaptEvery invalidation fires mid-run too.
	cached := newChainFixture(t, 42, 150, 150, 60, 12)
	cached2 := newChainFixture(t, 42, 150, 150, 60, 12)
	fresh := newChainFixture(t, 42, 150, 150, 60, 12)

	cached.runInterleaved(false)
	cached2.runInterleaved(false)
	fresh.runInterleaved(true)

	gotIDs, wantIDs := logIdentities(cached.x.Log), logIdentities(fresh.x.Log)
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("cached plan delivered %d rows, recompiled %d", len(gotIDs), len(wantIDs))
	}
	sort.Strings(gotIDs)
	sort.Strings(wantIDs)
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("result multiset differs at %d: %q vs %q", i, gotIDs[i], wantIDs[i])
		}
	}
	a, b, c := cached.env.Metrics.Snapshot(), fresh.env.Metrics.Snapshot(), cached2.env.Metrics.Snapshot()
	if a.JoinInserts != b.JoinInserts {
		t.Fatalf("insert counts diverged: %d vs %d", a.JoinInserts, b.JoinInserts)
	}
	// Determinism of the compiled path: identical runs, identical counters.
	if a.JoinInserts != c.JoinInserts || a.JoinProbes != c.JoinProbes ||
		a.ProbeCalls != c.ProbeCalls || a.ProbeTuples != c.ProbeTuples ||
		a.ProbeCacheHits != c.ProbeCacheHits {
		t.Fatalf("identical cached runs diverged: %+v vs %+v", a, c)
	}
	ids1, ids2 := logIdentities(cached.x.Log), logIdentities(cached2.x.Log)
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("identical cached runs delivered different row %d", i)
		}
	}
	if a.JoinProbes == 0 || a.ProbeCalls == 0 {
		t.Fatalf("fixture exercised no stored probes (%d) or remote probes (%d)", a.JoinProbes, a.ProbeCalls)
	}
}

// TestProbePlanMatchesDirectDerivation re-derives every step of the compiled
// plan with the original per-probe logic — jCov map rebuild, predicate
// orientation, first-match lookup selection — over the same evolving bound
// set, and requires the compiled steps to agree field for field. This is the
// "before/after compilation" equivalence at the plan level, independent of
// adaptive-order drift.
func TestProbePlanMatchesDirectDerivation(t *testing.T) {
	fx := newChainFixture(t, 11, 100, 100, 50, 10)
	check := func(when string) {
		for drive := 0; drive < len(fx.x.Node.Inputs); drive++ {
			if fx.x.Node.Inputs[drive].Probe {
				continue // probe inputs never drive
			}
			fx.x.plans[drive] = nil
			steps := fx.x.probePlan(drive)
			bound := map[int]bool{}
			for _, a := range fx.x.Node.Inputs[drive].AtomMap {
				bound[a] = true
			}
			for si := range steps {
				st := &steps[si]
				edge := fx.x.Node.Inputs[st.j]
				jCov := map[int]bool{}
				for _, a := range edge.AtomMap {
					jCov[a] = true
				}
				var lookup *cq.JoinPred
				var verify []cq.JoinPred
				for _, p0 := range fx.x.preds {
					var pr cq.JoinPred
					switch {
					case jCov[p0.AtomB] && !jCov[p0.AtomA] && bound[p0.AtomA]:
						pr = p0
					case jCov[p0.AtomA] && !jCov[p0.AtomB] && bound[p0.AtomB]:
						pr = cq.JoinPred{AtomA: p0.AtomB, ColA: p0.ColB, AtomB: p0.AtomA, ColB: p0.ColA}
					default:
						continue
					}
					if lookup == nil {
						lp := pr
						lookup = &lp
					} else {
						verify = append(verify, pr)
					}
				}
				if (lookup != nil) != st.hasLookup {
					t.Fatalf("%s drive %d step %d: lookup presence %v vs %v", when, drive, si, lookup != nil, st.hasLookup)
				}
				if lookup != nil && *lookup != st.lookup {
					t.Fatalf("%s drive %d step %d: lookup %+v vs compiled %+v", when, drive, si, *lookup, st.lookup)
				}
				if len(verify) != len(st.verify) {
					t.Fatalf("%s drive %d step %d: %d verify preds vs %d", when, drive, si, len(verify), len(st.verify))
				}
				for i := range verify {
					if verify[i] != st.verify[i] {
						t.Fatalf("%s drive %d step %d: verify %d %+v vs %+v", when, drive, si, i, verify[i], st.verify[i])
					}
				}
				if st.probe != edge.Probe {
					t.Fatalf("%s drive %d step %d: probe flag %v vs %v", when, drive, si, st.probe, edge.Probe)
				}
				for _, a := range edge.AtomMap {
					bound[a] = true
				}
			}
		}
	}
	check("cold")
	fx.runInterleaved(false) // evolve stats; adaptEvery recompiles mid-run
	check("warm")
}

// logValues renders the join results' column values in delivery order: a
// form comparable across fixtures built from one seed (identities are not —
// they carry a process-wide tuple sequence number).
func logValues(l *Log) []string {
	out := make([]string, l.Len())
	for i := range out {
		var b strings.Builder
		for _, t := range l.Row(i).Parts() {
			for c := 0; c < t.Schema().NumCols(); c++ {
				b.WriteString(t.Val(c).Key())
				b.WriteByte('|')
			}
		}
		out[i] = b.String()
	}
	return out
}

// checkBruteForce compares the join node's log against an exhaustive
// nested-loop join of A, the given middle relation (B, or A again when the
// fixture was fed as a self-join) and C.
func (fx *chainFixture) checkBruteForce(t *testing.T, when string, relB *relationdb.Relation) {
	t.Helper()
	want := map[string]int{}
	total := 0
	for _, ta := range fx.relA.Rows() {
		for _, tb := range relB.Rows() {
			if !ta.Val(1).Equal(tb.Val(0)) {
				continue
			}
			for _, tc := range fx.relC.Rows() {
				if !tb.Val(1).Equal(tc.Val(0)) {
					continue
				}
				parts := make([]*tuple.Tuple, 3)
				parts[fx.nodePos[0]], parts[fx.nodePos[1]], parts[fx.nodePos[2]] = ta, tb, tc
				want[tuple.NewRow(parts...).Identity()]++
				total++
			}
		}
	}
	got := logIdentities(fx.x.Log)
	if len(got) != total {
		t.Fatalf("%s: delivered %d results, brute force found %d", when, len(got), total)
	}
	seen := map[string]int{}
	for _, id := range got {
		seen[id]++
	}
	for id, n := range want {
		if seen[id] != n {
			t.Fatalf("%s: identity %q delivered %d times, want %d", when, id, seen[id], n)
		}
	}
}

// TestJoinResultsMatchBruteForce checks the m-join's output against an
// exhaustive nested-loop join of the same data, fed in turns that straddle
// the adaptEvery recompile boundary, and through a two-consumer fan-out node.
// A repeated run at one turn must deliver the same rows in the same order at
// the same work counters.
func TestJoinResultsMatchBruteForce(t *testing.T) {
	const nA, nB, nC, keys = 260, 260, 40, 12
	run := func(turn int) ([]string, metrics.Snapshot) {
		fx := newChainFixture(t, 7, nA, nB, nC, keys)
		fx.runTurns(turn, false)
		fx.checkBruteForce(t, fmt.Sprintf("turn=%d", turn), fx.relB)
		return logValues(fx.x.Log), fx.env.Metrics.Snapshot()
	}
	for _, turn := range []int{1, 63, 64, 65, 200} {
		order, work := run(turn)
		wantOrder, wantWork := run(turn)
		if !slices.Equal(order, wantOrder) {
			t.Fatalf("turn=%d: delivery order differs between identical runs", turn)
		}
		if work != wantWork {
			t.Fatalf("turn=%d: work counters differ between identical runs:\n%+v\n%+v", turn, work, wantWork)
		}
	}

	// Fan-out: one source feeding two inputs of the join (a self-join of A).
	// Each row must land on the first input and then the second before the
	// next row lands on either — delivering a run of rows whole to one input
	// and then the other would find the same pairs from the other side, in
	// another order.
	fan, ref := newChainFixture(t, 7, nA, nB, nC, keys), newChainFixture(t, 7, nA, nB, nC, keys)
	src := NewNodeExec(fan.edgeA.From)
	src.AddConsumer(fan.edgeA, fan.x)
	src.AddConsumer(fan.edgeB, fan.x)
	for _, r := range fan.rowsA {
		src.deliver(fan.env, r, 1)
	}
	for _, r := range ref.rowsA {
		ref.x.arrive(ref.env, r, ref.edgeA, 1)
		ref.x.arrive(ref.env, r, ref.edgeB, 1)
	}
	if src.Log.Len() != nA {
		t.Fatalf("fan-out source logged %d rows, want %d", src.Log.Len(), nA)
	}
	fan.checkBruteForce(t, "fan-out", fan.relA)
	if !slices.Equal(logValues(fan.x.Log), logValues(ref.x.Log)) {
		t.Fatal("fan-out: delivery order differs from arriving on each input in turn")
	}
	if got, want := fan.env.Metrics.Snapshot(), ref.env.Metrics.Snapshot(); got != want {
		t.Fatalf("fan-out: work counters differ from arriving on each input in turn:\n%+v\n%+v", got, want)
	}
}

// TestBaseColForSingleAtomInvariant pins the documented invariant: probe
// sources are single-atom, the column index carries over, and a violation
// panics instead of probing the wrong column.
func TestBaseColForSingleAtomInvariant(t *testing.T) {
	fx := newChainFixture(t, 3, 10, 10, 10, 4)
	probeEdge := fx.x.Node.Inputs[2]
	if !probeEdge.Probe {
		t.Fatal("input 2 should be the probe edge")
	}
	if got := fx.x.baseColFor(probeEdge, probeEdge.AtomMap[0], 1); got != 1 {
		t.Fatalf("baseColFor = %d, want 1", got)
	}
	// Wrong node atom for this edge must panic.
	wrongAtom := fx.nodePos[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("baseColFor accepted a mismatched node atom")
			}
		}()
		fx.x.baseColFor(probeEdge, wrongAtom, 0)
	}()
	// A multi-atom "probe source" must panic.
	multiEdge := &plangraph.Edge{From: fx.x.Node, AtomMap: []int{0, 1, 2}, Probe: true}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("baseColFor accepted a multi-atom probe source")
			}
		}()
		fx.x.baseColFor(multiEdge, 0, 0)
	}()
}

// TestProbePathZeroAllocs locks in the zero-allocation stored-probe path: a
// warm hash index probed through AppendProbe with a reused scratch buffer
// must not allocate.
func TestProbePathZeroAllocs(t *testing.T) {
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	m := NewAccessModule([]int{0})
	for i := 0; i < 256; i++ {
		m.Insert([]*tuple.Tuple{tuple.New(s, tuple.Int(int64(i%32)), tuple.Float(0.5))}, 1)
	}
	scratch := make([]partialRow, 0, 16)
	m.AppendProbe(scratch, 0, 0, tuple.Int(3), MaxEpochLive) // warm the index
	allocs := testing.AllocsPerRun(200, func() {
		scratch = m.AppendProbe(scratch[:0], 0, 0, tuple.Int(3), MaxEpochLive)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendProbe allocates %.1f times per run, want 0", allocs)
	}
	if len(scratch) != 8 {
		t.Fatalf("probe returned %d rows, want 8", len(scratch))
	}
}

// TestSeenSetReleaseAndAccounting covers the §6.3 satellite: the rank-merge
// seen set is visible to memory accounting and reclaimable without breaking
// later offers.
func TestSeenSetReleaseAndAccounting(t *testing.T) {
	s := rowSchema()
	q := &cq.CQ{ID: "CQ1", Atoms: []*cq.Atom{{Rel: "R", Args: []cq.Term{cq.V(0), cq.V(1)}}}, Model: scoring.QSystem(0, []float64{1})}
	entry := NewCQEntry(q, 1, []float64{1})
	sink := NewEndpointSink(entry, []int{0})
	env := &Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(1)), Metrics: &metrics.Counters{}}
	for i := 0; i < 10; i++ {
		sink.Offer(env, mkRow(s, i, 0.5))
	}
	sink.Offer(env, mkRow(s, 3, 0.5)) // duplicate
	if entry.SeenLen() != 10 {
		t.Fatalf("SeenLen = %d, want 10", entry.SeenLen())
	}
	if entry.Duplicates() != 1 {
		t.Fatalf("dups = %d, want 1", entry.Duplicates())
	}
	if entry.BufferLen() != 10 {
		t.Fatalf("buffer = %d, want 10", entry.BufferLen())
	}
	entry.DropSeen()
	if entry.SeenLen() != 0 {
		t.Fatalf("SeenLen after DropSeen = %d", entry.SeenLen())
	}
	// Buffered candidates stay; a (stray) later offer must not crash.
	sink.Offer(env, mkRow(s, 99, 0.4))
	if entry.BufferLen() != 11 {
		t.Fatalf("buffer after late offer = %d", entry.BufferLen())
	}
}

// TestLogEachBeforeMatchesBefore pins the epoch-partitioned iteration, and
// the partition count seeding uses, to an inline filter over the whole log,
// including the unsorted-epoch fallback that recovery appends (epoch e-1
// after live epoch e rows) can produce.
func TestLogEachBeforeMatchesBefore(t *testing.T) {
	s := rowSchema()
	check := func(l *Log, e int) {
		t.Helper()
		want := logBefore(l, e)
		var got []*tuple.Row
		l.EachBefore(e, func(r *tuple.Row) { got = append(got, r) })
		if len(got) != len(want) || l.countBefore(e) != len(want) {
			t.Fatalf("EachBefore(%d) yielded %d rows, countBefore %d, the filter %d", e, len(got), l.countBefore(e), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("EachBefore(%d) row %d differs", e, i)
			}
		}
	}
	var l Log
	epochs := []int{1, 1, 2, 3, 3, 1, 2} // out of order at index 5
	for i, e := range epochs {
		l.Append(mkRow(s, i, 0.5), e)
	}
	for e := 0; e <= 4; e++ {
		check(&l, e)
	}
	// Sorted-epoch fast path: fresh log, nondecreasing epochs.
	var l2 Log
	for i, e := range []int{0, 1, 1, 2, 5} {
		l2.Append(mkRow(s, i, 0.5), e)
	}
	for e := 0; e <= 6; e++ {
		check(&l2, e)
	}
}

// TestModuleEachBeforeMatchesScan pins the module-side iteration used by
// RecoverHistory to a filter over the exported rows.
func TestModuleEachBeforeMatchesScan(t *testing.T) {
	s := rowSchema()
	m := NewAccessModule([]int{0})
	for i := 0; i < 20; i++ {
		m.Insert([]*tuple.Tuple{tuple.New(s, tuple.Int(int64(i)), tuple.Float(0.5))}, i%4)
	}
	parts, epochs := m.Export()
	for e := 0; e <= 5; e++ {
		var want []partialRow
		for i, ps := range parts {
			if epochs[i] < e {
				want = append(want, partialRow{parts: ps, epoch: epochs[i]})
			}
		}
		var got []partialRow
		m.EachBefore(e, func(pr partialRow) { got = append(got, pr) })
		if len(got) != len(want) {
			t.Fatalf("EachBefore(%d) %d rows, the filter %d", e, len(got), len(want))
		}
		for i := range got {
			if got[i].parts[0] != want[i].parts[0] || got[i].epoch != want[i].epoch {
				t.Fatalf("EachBefore(%d) row %d differs", e, i)
			}
		}
	}
}

// TestIdentitySetMaintainedIncrementally checks the log's resident identity
// set stays consistent across appends and is dropped by Reset.
func TestIdentitySetMaintainedIncrementally(t *testing.T) {
	s := rowSchema()
	var l Log
	l.Append(mkRow(s, 1, 0.9), 1)
	set := l.IdentitySet()
	if set.Len() != 1 {
		t.Fatalf("ident set = %d", set.Len())
	}
	r2 := mkRow(s, 2, 0.8)
	if set.Has(r2) {
		t.Fatal("unseen row reported present")
	}
	l.Append(r2, 1)
	if !l.IdentitySet().Has(r2) || l.IdentCount() != 2 {
		t.Fatalf("append did not maintain ident set (count=%d)", l.IdentCount())
	}
	l.Reset()
	if l.IdentCount() != 0 {
		t.Fatalf("Reset left %d idents", l.IdentCount())
	}
}

// --- microbenchmarks ---------------------------------------------------------

// BenchmarkArrive measures the full per-tuple arrival path (translate,
// insert, compiled probe plan, verify, merge, deliver to log) on the mixed
// stored/remote three-input join.
func BenchmarkArrive(b *testing.B) {
	const rows = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx := newChainFixture(b, uint64(i)+1, rows, rows, 64, 16)
		b.StartTimer()
		fx.runInterleaved(false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*2), "ns/arrival")
}

// BenchmarkAccessModuleProbe measures the warm stored-probe path in
// isolation; it must stay allocation-free.
func BenchmarkAccessModuleProbe(b *testing.B) {
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	m := NewAccessModule([]int{0})
	for i := 0; i < 4096; i++ {
		m.Insert([]*tuple.Tuple{tuple.New(s, tuple.Int(int64(i%256)), tuple.Float(0.5))}, 1)
	}
	scratch := make([]partialRow, 0, 32)
	m.AppendProbe(scratch, 0, 0, tuple.Int(0), MaxEpochLive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = m.AppendProbe(scratch[:0], 0, 0, tuple.Int(int64(i%256)), MaxEpochLive)
	}
	_ = scratch
}

// BenchmarkAccessModuleProbeWide measures the warm stored-probe path over
// 65 536 distinct keys, one row each, probed in a scattered order: the index
// no longer fits in cache, so each probe pays for the misses a chain lookup
// takes.
func BenchmarkAccessModuleProbeWide(b *testing.B) {
	const keys = 1 << 16
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	m := NewAccessModule([]int{0})
	for i := 0; i < keys; i++ {
		m.Insert([]*tuple.Tuple{tuple.New(s, tuple.Int(int64(i)), tuple.Float(0.5))}, 1)
	}
	scratch := make([]partialRow, 0, 4)
	m.AppendProbe(scratch, 0, 0, tuple.Int(0), MaxEpochLive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(i) * 2654435761 % keys // an odd multiplier permutes the keys
		scratch = m.AppendProbe(scratch[:0], 0, 0, tuple.Int(int64(k)), MaxEpochLive)
	}
	if len(scratch) != 1 {
		b.Fatalf("probe returned %d rows, want 1", len(scratch))
	}
}

// BenchmarkChainIndexBuild measures building an index lazily over 4 096
// stored rows (1 024 keys, chains of 4), the way a first probe after state
// recovery builds one.
func BenchmarkChainIndexBuild(b *testing.B) {
	const rows = 4096
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	m := NewAccessModule([]int{0})
	for i := 0; i < rows; i++ {
		m.Insert([]*tuple.Tuple{tuple.New(s, tuple.Int(int64(i%1024)), tuple.Float(0.5))}, 1)
	}
	b.ReportAllocs()
	for b.Loop() {
		m.indexes = nil
		m.index(0, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkModuleInsert measures storing rows into an access module with one
// built index, in blocks of 4 096 rows per op; -benchmem shows what the
// block storage allocates per row.
func BenchmarkModuleInsert(b *testing.B) {
	const rows = 4096
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	parts := make([][]*tuple.Tuple, rows)
	for i := range parts {
		parts[i] = []*tuple.Tuple{tuple.New(s, tuple.Int(int64(i%256)), tuple.Float(0.5)), nil}
	}
	b.ReportAllocs()
	for b.Loop() {
		m := NewAccessModule([]int{0})
		m.AppendProbe(nil, 0, 0, tuple.Int(0), MaxEpochLive) // index built before the rows arrive
		for _, p := range parts {
			m.Insert(p, 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkEndpointOffer measures scoring + dedup + buffering per offered
// row, with every second row a duplicate.
func BenchmarkEndpointOffer(b *testing.B) {
	s := rowSchema()
	q := &cq.CQ{ID: "CQ1", Atoms: []*cq.Atom{{Rel: "R", Args: []cq.Term{cq.V(0), cq.V(1)}}}, Model: scoring.QSystem(0, []float64{1})}
	entry := NewCQEntry(q, 1, []float64{1})
	sink := NewEndpointSink(entry, []int{0})
	env := &Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(1)), Metrics: &metrics.Counters{}}
	rows := make([]*tuple.Row, 1<<16)
	for i := range rows {
		rows[i] = mkRow(s, i/2, 0.5) // every identity offered twice
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Offer(env, rows[i%len(rows)])
	}
	if entry.Duplicates() == 0 && b.N > 1 {
		b.Fatal(fmt.Sprintf("expected duplicates, got %d", entry.Duplicates()))
	}
}
