package qsm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/workload"
)

// planString renders an optimizer result completely: cost, candidate count,
// and per input its expression, mode, database and every consumer with its
// atom mapping. Two results that render equal graft identically.
func planString(t *testing.T, res *mqo.Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%v candidates=%d\n", res.Cost, res.CandidateCount)
	for _, in := range res.Inputs {
		fmt.Fprintf(&b, "%s %v %s", in.Expr.Key(), in.Mode, in.DB)
		ids := make([]string, 0, len(in.Uses))
		for id := range in.Uses {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			occ := in.Uses[id]
			if occ.CQ.ID != id {
				t.Fatalf("input %s: use %s bound to query %s", in.Expr.Key(), id, occ.CQ.ID)
			}
			fmt.Fprintf(&b, " %s%v", id, occ.AtomOf)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// shuffledIndexes returns a seeded permutation of 0..n-1.
func shuffledIndexes(rng *dist.RNG, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// diffSide is one engine of the differential pair with its own front desk;
// both sides are built from the same seeds, so the same call sequence expands
// to identical user queries on distinct *cq.CQ objects.
type diffSide struct {
	pipe *core.Pipeline
	exp  *service.Expander
}

func newDiffSide(t *testing.T, w *workload.Workload, spill bool) *diffSide {
	t.Helper()
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 9})
	p.Manager.Unit = qsm.UnitUQ
	if spill {
		if err := p.Manager.EnableSpill(t.TempDir(), p.Manager.DefaultResolver()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Manager.State.Close() }) //nolint:errcheck
	}
	return &diffSide{pipe: p, exp: service.NewExpander(w, service.Config{Seed: 3, K: 10})}
}

// TestPlanCacheDifferential drives randomized admission sequences — suite
// searches and their overlap variants, repeated, from three users whose
// scoring coefficients evolve per search, with the CQ order sometimes
// permuted — interleaved with every source of catalog change: §6.1 feedback
// (SyncCatalog), eviction (discard or spill) and RecordExprCard. Before each
// admission a direct mqo.Optimize on the live
// catalog must equal what the plan cache returns; and the engine with the
// cache must stay indistinguishable — answers, plan-graph shape, work
// counters, resident state — from a replay whose cache is emptied before
// every admission.
func TestPlanCacheDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		load  func() (*workload.Workload, error)
		spill bool
		steps int
	}{
		{"bio/discard", workload.Bio, false, 160},
		{"bio/spill", workload.Bio, true, 160},
		{"gus/discard", func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) }, false, 90},
		{"gus/spill", func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) }, true, 90},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			var pool [][]string
			for _, s := range w.Submissions {
				pool = append(pool, s.UQ.Keywords)
				pool = append(pool, workload.OverlapVariants(s.UQ.Keywords)...)
			}
			cached, plain := newDiffSide(t, w, tc.spill), newDiffSide(t, w, tc.spill)
			sides := []*diffSide{cached, plain}
			users := []string{"ada", "grace", "edsger"}
			rng := dist.New(77)
			hits, searches := 0, 0
			// weighed holds the AND-OR memo keys of the latest direct search:
			// chosen inputs, rejected candidates and join results alike.
			var weighed []string

			for step := 0; step < tc.steps; step++ {
				switch rng.Intn(12) {
				case 0: // an observed cardinality lands on an expression some search weighed
					if len(weighed) == 0 {
						continue
					}
					key := weighed[rng.Intn(len(weighed))]
					card := float64(1 + rng.Intn(400))
					for _, s := range sides {
						s.pipe.Catalog.RecordExprCard(key, card)
					}
					continue
				case 1: // memory pressure: evict down to half the resident state
					for _, s := range sides {
						m := s.pipe.Manager
						m.MemoryBudget = 1 + m.StateSize()/2
						m.EnforceBudget(m.ATC.Epoch())
						m.MemoryBudget = 0
					}
					continue
				}

				user, kw := users[rng.Intn(len(users))], pool[rng.Intn(len(pool))]
				var perm []int
				uqs := make([]*cq.UQ, len(sides))
				for i, s := range sides {
					uq, err := s.exp.Expand(user, kw, 10)
					if err != nil {
						t.Fatalf("step %d expand %v: %v", step, kw, err)
					}
					if i == 0 && rng.Intn(3) == 0 {
						perm = shuffledIndexes(rng, len(uq.CQs))
					}
					if perm != nil {
						shuffled := make([]*cq.CQ, len(uq.CQs))
						for j, p := range perm {
							shuffled[j] = uq.CQs[p]
						}
						uq.CQs = shuffled
					}
					uqs[i] = uq
					s.pipe.Manager.SyncCatalog()
				}
				cfg := mqo.Config{K: 10}

				// The optimizer-level differential on the cached side's catalog.
				want, err := mqo.Optimize(uqs[0].CQs, cached.pipe.Manager.CM, cfg)
				if err != nil {
					t.Fatalf("step %d optimize: %v", step, err)
				}
				weighed = want.Memo.Keys()
				got, hit, err := cached.pipe.Manager.PlanFor(uqs[0].CQs, cfg)
				if err != nil {
					t.Fatalf("step %d plan cache: %v", step, err)
				}
				if g, w := planString(t, got), planString(t, want); g != w {
					t.Fatalf("step %d %v (hit=%v): plan cache returned\n%s\nmqo.Optimize returns\n%s", step, kw, hit, g, w)
				}
				if hit {
					hits++
				} else {
					searches++
				}

				// The engine-level differential against the cache-less replay.
				plain.pipe.Manager.ResetPlanCache()
				reports := make([]*qsm.AdmitReport, len(sides))
				for i, s := range sides {
					rep, err := s.pipe.Admit([]batcher.Submission{{At: s.pipe.Env.Clock.Now(), UQ: uqs[i]}}, cfg)
					if err != nil {
						t.Fatalf("step %d admit: %v", step, err)
					}
					reports[i] = rep
					s.pipe.Drain()
				}
				if reports[0].PlanCacheHits != 1 || reports[1].PlanCacheMisses != 1 {
					t.Fatalf("step %d: cached side hits=%d, cache-less side misses=%d", step, reports[0].PlanCacheHits, reports[1].PlanCacheMisses)
				}
				if fmt.Sprint(reports[0].CandidatesPerGroup) != fmt.Sprint(reports[1].CandidatesPerGroup) {
					t.Fatalf("step %d: candidates per group %v vs %v", step, reports[0].CandidatesPerGroup, reports[1].CandidatesPerGroup)
				}
				a, b := cached.pipe.FindMerge(uqs[0].ID).RM.Results(), plain.pipe.FindMerge(uqs[1].ID).RM.Results()
				if len(a) != len(b) {
					t.Fatalf("step %d %v: %d answers vs %d cache-less", step, kw, len(a), len(b))
				}
				for i := range a {
					if a[i].Score != b[i].Score || a[i].CQID != b[i].CQID || a[i].Row.Identity() != b[i].Row.Identity() {
						t.Fatalf("step %d %v: answer %d differs from the cache-less replay", step, kw, i)
					}
				}
				for i, s := range sides {
					s.pipe.ATC.Forget(uqs[i].ID)
				}
				if a, b := cached.pipe.Graph.Stats(), plain.pipe.Graph.Stats(); a != b {
					t.Fatalf("step %d: plan graph %+v vs cache-less %+v", step, a, b)
				}
				if a, b := cached.pipe.Snapshot(), plain.pipe.Snapshot(); a != b {
					t.Fatalf("step %d: work counters\n%+v\nvs cache-less\n%+v", step, a, b)
				}
				if a, b := cached.pipe.Manager.StateSize(), plain.pipe.Manager.StateSize(); a != b {
					t.Fatalf("step %d: resident state %d vs cache-less %d", step, a, b)
				}
			}

			st := cached.pipe.Manager.PlanCacheStats()
			t.Logf("optimizer-level: %d hits, %d searches; cache: %+v", hits, searches, st)
			if hits == 0 || searches == 0 || st.Stale == 0 {
				t.Fatalf("sequence exercised hits=%d searches=%d stale=%d; the differential is vacuous", hits, searches, st.Stale)
			}
		})
	}
}
