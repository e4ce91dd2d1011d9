package atc_test

import (
	"fmt"
	"testing"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/workload"
)

// reviveSide is one engine of the revive differential with its own front
// desk; both sides are built from the same seeds, so the same call sequence
// expands to identical user queries.
type reviveSide struct {
	pipe *core.Pipeline
	exp  *service.Expander
}

func newReviveSide(t *testing.T, w *workload.Workload, spill, force bool) *reviveSide {
	t.Helper()
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 9})
	p.Manager.Unit = qsm.UnitUQ
	atc.SetForceRecover(p.ATC, force)
	if spill {
		if err := p.Manager.EnableSpill(t.TempDir(), p.Manager.DefaultResolver()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Manager.State.Close() }) //nolint:errcheck
	}
	return &reviveSide{pipe: p, exp: service.NewExpander(w, service.Config{Seed: 3, K: 10})}
}

func (s *reviveSide) logs() map[string][]logRow { return nodeLogs(s.pipe.Graph, s.pipe.ATC) }

// TestReviveDifferential runs the bio, GUS and Pfam suites — their searches
// and overlap variants, repeated, from three users, sometimes two to a batch
// — with unbounded state, under discard eviction and under spill eviction,
// on an engine that re-binds parked segments and on one that re-derives
// every revived segment's history. After every admission the answers, the
// source tuples read and every node's log (row identities and epoch stamps,
// in order) must be equal, and the re-binding engine may do no more join
// probes and replay no more rows.
func TestReviveDifferential(t *testing.T) {
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
				reviveDifferential(t, w, pool, mode, tc.steps)
			})
		}
	}
}

func reviveDifferential(t *testing.T, w *workload.Workload, pool [][]string, mode string, steps int) {
	rebind, forced := newReviveSide(t, w, mode == "spill", false), newReviveSide(t, w, mode == "spill", true)
	sides := []*reviveSide{rebind, forced}
	users := []string{"ada", "grace", "edsger"}
	rng := dist.New(41)
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
		ids := make([][]string, len(sides))
		for si, s := range sides {
			var subs []batcher.Submission
			for i := range kws {
				uq, err := s.exp.Expand(who[i], kws[i], 10)
				if err != nil {
					t.Fatalf("step %d expand %v: %v", step, kws[i], err)
				}
				subs = append(subs, batcher.Submission{At: s.pipe.Env.Clock.Now(), UQ: uq})
				ids[si] = append(ids[si], uq.ID)
			}
			if _, err := s.pipe.Admit(subs, mqo.Config{K: 10}); err != nil {
				t.Fatalf("step %d admit: %v", step, err)
			}
			s.pipe.Drain()
		}
		what := fmt.Sprintf("step %d %v", step, kws)
		for i := range kws {
			a, b := rebind.pipe.ATC.MergeByUQ(ids[0][i]), forced.pipe.ATC.MergeByUQ(ids[1][i])
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s: merges failed: %v / %v", what, a.Err, b.Err)
			}
			sameAnswers(t, what, a.RM.Results(), b.RM.Results())
			rebind.pipe.ATC.Forget(ids[0][i])
			forced.pipe.ATC.Forget(ids[1][i])
		}
		r, f := rebind.pipe.Snapshot(), forced.pipe.Snapshot()
		if r.TuplesConsumed() != f.TuplesConsumed() {
			t.Fatalf("%s: %d source tuples, forced recovery %d", what, r.TuplesConsumed(), f.TuplesConsumed())
		}
		if r.JoinProbes > f.JoinProbes || r.ReplayTuples > f.ReplayTuples {
			t.Fatalf("%s: %d join probes and %d replayed rows, forced recovery %d and %d",
				what, r.JoinProbes, r.ReplayTuples, f.JoinProbes, f.ReplayTuples)
		}
		sameLogs(t, what, rebind.logs(), forced.logs())
	}

	r, f := rebind.pipe.Snapshot(), forced.pipe.Snapshot()
	t.Logf("re-bound %d revivals; join probes %d vs %d, replayed rows %d vs %d; evictions %d, revivals from spill %d",
		r.RevivalsRebound, r.JoinProbes, f.JoinProbes, r.ReplayTuples, f.ReplayTuples,
		rebind.pipe.Manager.Evictions(), r.RevivalsFromSpill)
	if r.RevivalsRebound == 0 || r.JoinProbes >= f.JoinProbes {
		t.Fatal("no revive re-bound a parked segment; the differential is vacuous")
	}
	if mode != "unbounded" && rebind.pipe.Manager.Evictions() == 0 {
		t.Fatal("nothing was evicted")
	}
	if mode == "spill" && r.RevivalsFromSpill == 0 {
		t.Fatal("no node was restored from spill")
	}
}
