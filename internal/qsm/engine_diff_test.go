package qsm_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/atc"
	"repro/internal/core/coretest"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/workload"
)

// sameFeedback requires the catalog feedback on keys, just after a sync, to
// be what a full walk of the graph writes.
func sameFeedback(t *testing.T, what string, m *qsm.Manager, keys map[string]bool) {
	t.Helper()
	render := func() (out []string) {
		for _, k := range slices.Sorted(maps.Keys(keys)) {
			card, ok := m.Cat.ObservedCard(k)
			out = append(out, fmt.Sprint(k, " streamed=", m.Cat.StreamedSoFar(k), " card=", card, ok))
		}
		return out
	}
	synced := render()
	qsm.FullSyncCatalog(m)
	coretest.Same(t, what, "dirty-list sync; the reference is a full walk", synced, render())
}

// endpoints renders where each query of uqs ends: node key and atom map.
func endpoints(g *plangraph.Graph, uqs []*cq.UQ) (out []string) {
	for _, uq := range uqs {
		for _, q := range uq.CQs {
			e := g.Endpoint(q.ID)
			out = append(out, fmt.Sprint(e.Node.Key, e.AtomMap))
		}
	}
	return out
}

// reference makes ref this package's one reference: it seeds every endpoint
// with its whole log, and the returned reset, which a differential calls
// before every admission, empties its plan cache, so every group pays for
// mqo.Optimize and factorize.Build.
func reference(ref *coretest.Side) (reset func()) {
	qsm.SetEagerSeed(ref.Pipe.Manager, true)
	return ref.Pipe.Manager.ResetPlanCache
}

// TestPlanCacheDifferential runs coretest's bio and GUS schedules, where
// eviction, feedback and injected cardinalities keep changing the catalog,
// on the production engine and on the reference. Before each admission the plan cache must return what
// mqo.Optimize on the live catalog returns, cost included, also when it
// serves an entry re-priced under moved row counts. After each admission the plan
// cache's hits and misses must be the reference's lookups and the groups'
// candidate counts the reference's. After each drain the answers with their
// emission stamps, the ledger and the work counters but SeedPulled must be
// equal.
func TestPlanCacheDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("each engine runs on one goroutine; see raceEnabled")
	}
	coretest.Run(t, func(prod, ref *coretest.Side) coretest.Checks {
		reset := reference(ref)
		pm, rm := prod.Pipe.Manager, ref.Pipe.Manager
		hits, misses := 0, 0
		return coretest.Checks{
			Admit: func(t *testing.T, s *coretest.Step) {
				for _, uq := range s.UQs[0] {
					got, hit, err := pm.PlanFor(uq.CQs, mqo.Config{K: 10})
					if err != nil {
						t.Fatalf("%s: plan cache: %v", s.What, err)
					}
					if !hit { // a miss returns mqo.Optimize's own result
						misses++
						continue
					}
					hits++
					want, err := mqo.Optimize(uq.CQs, pm.CM, mqo.Config{K: 10})
					if err != nil {
						t.Fatalf("%s: optimize: %v", s.What, err)
					}
					if g, w := qsm.PlanString(got), qsm.PlanString(want); g != w {
						t.Fatalf("%s: plan cache returned\n%s\nmqo.Optimize returns\n%s", s.What, g, w)
					}
				}
				reset()
			},
			Admitted: func(t *testing.T, s *coretest.Step) {
				a, b := s.Reports[0], s.Reports[1]
				coretest.Same(t, s.What, "plan cache hits and misses; the reference's lookups, all served by PlanFor",
					[2]int{a.PlanCacheHits, a.PlanCacheMisses}, [2]int{b.PlanCacheHits + b.PlanCacheMisses, 0})
				coretest.Same(t, s.What, "candidates per group", a.CandidatesPerGroup, b.CandidatesPerGroup)
			},
			Drained: func(t *testing.T, s *coretest.Step) {
				for i := range s.UQs[0] {
					ms := s.Merges(i)
					coretest.Same(t, s.What, "answers", coretest.Answers(ms[0].RM.Results(), true), coretest.Answers(ms[1].RM.Results(), true))
				}
				coretest.Same(t, s.What, "ledger after drain", pm.StateSize(), rm.StateSize())
				a, b := prod.Pipe.Snapshot(), ref.Pipe.Snapshot()
				a.SeedPulled, b.SeedPulled = 0, 0
				coretest.Same(t, s.What, "work counters but SeedPulled", a, b)
			},
			Done: func(t *testing.T, s *coretest.Step) {
				st := pm.PlanCacheStats()
				t.Logf("plan cache %+v, %d hits and %d misses looked up", st, hits, misses)
				if hits == 0 || misses == 0 || st.Stale == 0 || st.Rechecked == 0 {
					t.Fatal("the differential is vacuous: it needs hits, misses, stale entries and re-priced hits")
				}
			},
		}
	}, "bio/unbounded", "bio/discard", "bio/spill", "gus/unbounded", "gus/discard", "gus/spill")
}

// TestDirectGraftDifferential runs all of coretest's schedules on the
// production engine and on the reference, which grafts no plan-cache hit
// directly and seeds no endpoint through a cursor. After each admission the
// plan graph (Dump, Stats), every query's endpoint and the ledger must equal
// the reference's, and the ledger its audit. After each drain the answers
// with their emission stamps, each merge's pruned CQs round by round, every
// node's log, the ledger and the work counters but SeedPulled must be equal,
// with no duplicate dropped. Before each admission and after each drain the
// dirty-list catalog sync must have written what a full walk writes.
func TestDirectGraftDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("each engine runs on one goroutine; see raceEnabled")
	}
	coretest.Run(t, func(prod, ref *coretest.Side) coretest.Checks {
		reset := reference(ref)
		pm, rm := prod.Pipe.Manager, ref.Pipe.Manager
		prunes := 0
		return coretest.Checks{
			Admit: func(t *testing.T, s *coretest.Step) {
				sameFeedback(t, s.What+" before admission", pm, s.Streams)
				reset()
			},
			Admitted: func(t *testing.T, s *coretest.Step) {
				coretest.Same(t, s.What, "plan graph", pm.Graph.Dump(), rm.Graph.Dump())
				coretest.Same(t, s.What, "plan graph stats", pm.Graph.Stats(), rm.Graph.Stats())
				coretest.Same(t, s.What, "endpoints", endpoints(pm.Graph, s.UQs[0]), endpoints(rm.Graph, s.UQs[1]))
				coretest.Same(t, s.What, "ledger after admission", pm.StateSize(), rm.StateSize())
				coretest.Same(t, s.What, "ledger against its audit", pm.StateSize(), pm.AuditStateSize())
			},
			Drained: func(t *testing.T, s *coretest.Step) {
				for i, uq := range s.UQs[0] {
					ms := s.Merges(i)
					coretest.Same(t, s.What, "answers", coretest.Answers(ms[0].RM.Results(), true), coretest.Answers(ms[1].RM.Results(), true))
					coretest.Same(t, s.What, "pruned CQs", s.Pruned[0][uq.ID], s.Pruned[1][s.UQs[1][i].ID])
					prunes += len(s.Pruned[0][uq.ID])
					for _, e := range append(ms[0].RM.Entries, ms[1].RM.Entries...) {
						if e.Duplicates() != 0 {
							t.Fatalf("%s: %s dropped %d duplicates", s.What, e.CQ.ID, e.Duplicates())
						}
					}
				}
				sameFeedback(t, s.What+" after drain", pm, s.Streams)
				coretest.SameLogs(t, s.What, coretest.NodeLogs(pm.Graph, pm.ATC), coretest.NodeLogs(rm.Graph, rm.ATC))
				coretest.Same(t, s.What, "ledger after drain", pm.StateSize(), rm.StateSize())
				a, b := prod.Pipe.Snapshot(), ref.Pipe.Snapshot()
				a.SeedPulled, b.SeedPulled = 0, 0
				coretest.Same(t, s.What, "work counters but SeedPulled", a, b)
			},
			Done: func(t *testing.T, s *coretest.Step) {
				st, w := pm.PlanCacheStats(), prod.Pipe.Snapshot()
				t.Logf("%d direct grafts (reference %d); evictions %d; seeded %d rows, pulled %d; %d CQs pruned",
					st.DirectGrafts, rm.PlanCacheStats().DirectGrafts, pm.Evictions(), w.SeededRows, w.SeedPulled, prunes)
				if st.DirectGrafts == 0 || rm.PlanCacheStats().DirectGrafts != 0 ||
					prunes == 0 || w.SeedPulled >= w.SeededRows || s.Mode != "unbounded" && pm.Evictions() == 0 {
					t.Fatal("the differential is vacuous: it needs direct grafts (none on the reference), pruned CQs, fewer rows pulled than seeded and, when state is bounded, evictions")
				}
			},
		}
	})
}

// TestPrunedCursorOutlivesEviction pins a seed cursor's snapshot: a warm
// search runs until one of its CQs is pruned with seeded rows still
// buffered or behind its cursor, every idle node — that CQ's parked endpoint
// among them — is then evicted, and the search runs on. Its answers, stamps
// included, must equal those of an engine seeding eagerly, and the pruned
// CQ must still emit after the eviction.
func TestPrunedCursorOutlivesEviction(t *testing.T) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range w.Submissions {
		kw := sub.UQ.Keywords
		sides := []*coretest.Side{coretest.NewSide(t, w, false), coretest.NewSide(t, w, false)}
		qsm.SetEagerSeed(sides[1].Pipe.Manager, true)
		var merges []*atc.MergeState
		ends := map[string]*plangraph.Node{}
		for i, s := range sides {
			for j := 0; j < 2; j++ { // warm: the third run seeds its endpoints
				uq := s.Search(t, "ada", kw)
				s.Pipe.Drain()
				s.Pipe.ATC.Forget(uq.ID)
			}
			uq := s.Search(t, "ada", kw)
			merges = append(merges, s.Pipe.ATC.MergeByUQ(uq.ID))
			for _, q := range uq.CQs {
				if i == 0 {
					ends[q.ID] = s.Pipe.Graph.Endpoint(q.ID).Node
				}
			}
		}
		// Step both merges in lockstep, as the controller's round would,
		// until a CQ is pruned holding candidates.
		var pruned *operator.CQEntry
		for pruned == nil {
			var step operator.Step
			for i, s := range sides {
				if step = merges[i].RM.Advance(s.Pipe.Env); step.Kind == operator.StepRead {
					step.Source.ReadOne(s.Pipe.Env, s.Pipe.ATC.Epoch())
				}
				for _, id := range step.PrunedCQs {
					s.Pipe.ATC.UnlinkCQ(id)
				}
			}
			if step.Kind == operator.StepDone {
				break
			}
			for _, id := range step.PrunedCQs {
				if e := merges[0].RM.Entry(id); e.BufferLen() > 0 {
					pruned = e
				}
			}
		}
		if pruned != nil {
			for _, s := range sides {
				coretest.Evict(s.Pipe.Manager, 1)
			}
			if _, live := sides[0].Pipe.ATC.HasExec(ends[pruned.CQ.ID]); live {
				t.Fatalf("%v: %s's endpoint node survived the eviction", kw, pruned.CQ.ID)
			}
		}
		before := len(merges[0].RM.Results())
		for _, s := range sides {
			s.Pipe.Drain()
		}
		coretest.Same(t, fmt.Sprint(kw), "answers", coretest.Answers(merges[0].RM.Results(), true), coretest.Answers(merges[1].RM.Results(), true))
		for _, r := range merges[0].RM.Results()[before:] {
			if pruned != nil && r.CQID == pruned.CQ.ID {
				return
			}
		}
	}
	t.Fatal("no pruned CQ emitted after its endpoint node was evicted; the test is vacuous")
}
