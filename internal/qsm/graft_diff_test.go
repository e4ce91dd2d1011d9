package qsm_test

import (
	"fmt"
	"testing"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestDirectGraftDifferential runs the bio, GUS and Pfam suites — their
// searches and overlap variants, repeated, from three users, sometimes two to
// a batch — with unbounded state, under discard eviction and under spill
// eviction, on an engine that grafts plan-cache hits from the entry's graft
// record and on one that runs factorize.Build for every group. Both use the
// plan cache. After every admission the plan graph (Dump) and every admitted
// query's endpoint (node key and atom map) must be equal; after every drain,
// the answers and the work counters.
func TestDirectGraftDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("each engine runs on one goroutine; see raceEnabled")
	}
	gus := func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) }
	pfam := func() (*workload.Workload, error) { return workload.Pfam(workload.PfamScaleDefault()) }
	for _, tc := range []struct {
		name  string
		load  func() (*workload.Workload, error)
		steps int
	}{
		{"bio", workload.Bio, 80},
		{"gus", gus, 40},
		{"pfam", pfam, 40},
	} {
		w, err := tc.load()
		if err != nil {
			t.Fatal(err)
		}
		var pool [][]string
		for _, s := range w.Submissions {
			pool = append(pool, s.UQ.Keywords)
			pool = append(pool, workload.OverlapVariants(s.UQ.Keywords)...)
		}
		for _, mode := range []string{"unbounded", "discard", "spill"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				graftDifferential(t, w, pool, mode, tc.steps)
			})
		}
	}
}

func graftDifferential(t *testing.T, w *workload.Workload, pool [][]string, mode string, steps int) {
	direct, built := newDiffSide(t, w, mode == "spill"), newDiffSide(t, w, mode == "spill")
	qsm.SetForceBuild(built.pipe.Manager, true)
	sides := []*diffSide{direct, built}
	users := []string{"ada", "grace", "edsger"}
	rng := dist.New(53)
	for step := 0; step < steps; step++ {
		if mode != "unbounded" && rng.Intn(6) == 0 {
			// Memory pressure: evict down to half the resident state.
			for _, s := range sides {
				m := s.pipe.Manager
				m.MemoryBudget = 1 + m.StateSize()/2
				m.EnforceBudget(m.ATC.Epoch())
				m.MemoryBudget = 0
			}
		}
		batch := 1 + rng.Intn(4)/3 // one search in four shares its batch with another
		var kws [][]string
		var who []string
		for i := 0; i < batch; i++ {
			kws = append(kws, pool[rng.Intn(len(pool))])
			who = append(who, users[rng.Intn(len(users))])
		}
		uqs := make([][]*cq.UQ, len(sides))
		for si, s := range sides {
			var subs []batcher.Submission
			for i := range kws {
				uq, err := s.exp.Expand(who[i], kws[i], 10)
				if err != nil {
					t.Fatalf("step %d expand %v: %v", step, kws[i], err)
				}
				subs = append(subs, batcher.Submission{At: s.pipe.Env.Clock.Now(), UQ: uq})
				uqs[si] = append(uqs[si], uq)
			}
			if _, err := s.pipe.Admit(subs, mqo.Config{K: 10}); err != nil {
				t.Fatalf("step %d admit: %v", step, err)
			}
		}
		what := fmt.Sprintf("step %d %v", step, kws)
		if a, b := direct.pipe.Graph.Dump(), built.pipe.Graph.Dump(); a != b {
			t.Fatalf("%s: plan graph\n%s\nafter factorize.Build\n%s", what, a, b)
		}
		for i := range kws {
			for j, q := range uqs[0][i].CQs {
				a, b := direct.pipe.Graph.Endpoint(q.ID), built.pipe.Graph.Endpoint(uqs[1][i].CQs[j].ID)
				if a.Node.Key != b.Node.Key || fmt.Sprint(a.AtomMap) != fmt.Sprint(b.AtomMap) {
					t.Fatalf("%s: %s ends at %s %v, after factorize.Build %s %v", what, q.ID, a.Node.Key, a.AtomMap, b.Node.Key, b.AtomMap)
				}
			}
		}
		for _, s := range sides {
			s.pipe.Drain()
		}
		for i := range kws {
			a, b := direct.pipe.FindMerge(uqs[0][i].ID), built.pipe.FindMerge(uqs[1][i].ID)
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s: merges failed: %v / %v", what, a.Err, b.Err)
			}
			sameResults(t, what, a.RM.Results(), b.RM.Results())
			direct.pipe.ATC.Forget(uqs[0][i].ID)
			built.pipe.ATC.Forget(uqs[1][i].ID)
		}
		if a, b := direct.pipe.Snapshot(), built.pipe.Snapshot(); a != b {
			t.Fatalf("%s: work counters\n%+v\nafter factorize.Build\n%+v", what, a, b)
		}
	}
	st, ref := direct.pipe.Manager.PlanCacheStats(), built.pipe.Manager.PlanCacheStats()
	t.Logf("plan cache %+v; evictions %d", st, direct.pipe.Manager.Evictions())
	if st.DirectGrafts == 0 || ref.DirectGrafts != 0 {
		t.Fatalf("direct grafts %d, forced-Build side %d; the differential is vacuous", st.DirectGrafts, ref.DirectGrafts)
	}
	if mode != "unbounded" && direct.pipe.Manager.Evictions() == 0 {
		t.Fatal("nothing was evicted")
	}
}

// sameResults requires equal answers in order, emission stamps included.
func sameResults(t *testing.T, what string, got, want []operator.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Score != w.Score || g.CQID != w.CQID || g.At != w.At || g.Row.Identity() != w.Row.Identity() {
			t.Fatalf("%s: answer %d = %v %s %s at %v, want %v %s %s at %v", what, i+1,
				g.Score, g.CQID, g.Row.Identity(), g.At, w.Score, w.CQID, w.Row.Identity(), w.At)
		}
	}
}

// BenchmarkWarmAdmit measures one repeated search on a warm pipeline —
// expanded, admitted (a plan-cache hit grafted from its record, endpoints
// seeded from the resident logs), run to done and forgotten — the path
// whose cost should follow k and the query's CQ count, not the graph.
func BenchmarkWarmAdmit(b *testing.B) {
	w, err := workload.Bio()
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 9})
	p.Manager.Unit = qsm.UnitUQ
	exp := service.NewExpander(w, service.Config{Seed: 3, K: 10})
	kw := w.Submissions[0].UQ.Keywords
	run := func() {
		uq, err := exp.Expand("ada", kw, 10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Admit([]batcher.Submission{{At: p.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: 10}); err != nil {
			b.Fatal(err)
		}
		p.Drain()
		p.ATC.Forget(uq.ID)
	}
	for i := 0; i < 5; i++ {
		run() // let the plan cache and the catalog feedback settle
	}
	before := p.Manager.PlanCacheStats().DirectGrafts
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
	if p.Manager.PlanCacheStats().DirectGrafts == before {
		b.Fatal("the repeated search was never grafted directly")
	}
}
