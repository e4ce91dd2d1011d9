package qsm_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/workload"
)

// TestDirectGraftDifferential runs the bio, GUS and Pfam suites — their
// searches and overlap variants, repeated, from three users, sometimes two to
// a batch — with unbounded state, under discard eviction and under spill
// eviction, on the production engine and beside it two references, each
// compared with it alone. After every drain the answers with their emission
// stamps and each merge's pruned CQs, round by round (drainPruned), must be
// equal, with no duplicate dropped on either side; and
//
//   - one reference runs factorize.Build for every group instead of grafting
//     plan-cache hits from the entry's graft record (both use the plan
//     cache): after every admission the plan graph (Dump) and every admitted
//     query's endpoint (node key and atom map) must be equal, after every
//     drain the work counters;
//   - the other seeds every endpoint eagerly instead of through a cursor:
//     after every admission the plan graph and the ledger total must be
//     equal, after every drain the work counters but SeedPulled.
//
// On the production engine the ledger must equal its audit after every
// admission, and after every catalog sync a walk of the whole graph must
// find nothing the dirty list missed.
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
	spill := mode == "spill"
	direct, built, eager := newDiffSide(t, w, spill), newDiffSide(t, w, spill), newDiffSide(t, w, spill)
	qsm.SetForceBuild(built.pipe.Manager, true)
	qsm.SetEagerSeed(eager.pipe.Manager, true)
	sides := []*diffSide{direct, built, eager}
	users := []string{"ada", "grace", "edsger"}
	rng := dist.New(53)
	feedback := newFeedbackCheck()
	pulled, prunes := int64(0), 0
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
		for _, s := range sides {
			s.pipe.Manager.SyncCatalog()
		}
		feedback.check(t, fmt.Sprintf("step %d before admission", step), direct.pipe.Manager)
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
		for _, ref := range sides[1:] {
			if a, b := direct.pipe.Graph.Dump(), ref.pipe.Graph.Dump(); a != b {
				t.Fatalf("%s: plan graph\n%s\nreference\n%s", what, a, b)
			}
		}
		for i := range kws {
			for j, q := range uqs[0][i].CQs {
				a, b := direct.pipe.Graph.Endpoint(q.ID), built.pipe.Graph.Endpoint(uqs[1][i].CQs[j].ID)
				if a.Node.Key != b.Node.Key || fmt.Sprint(a.AtomMap) != fmt.Sprint(b.AtomMap) {
					t.Fatalf("%s: %s ends at %s %v, after factorize.Build %s %v", what, q.ID, a.Node.Key, a.AtomMap, b.Node.Key, b.AtomMap)
				}
			}
		}
		if a, b := direct.pipe.Manager.StateSize(), eager.pipe.Manager.StateSize(); a != b {
			t.Fatalf("%s: ledger %d after admission, %d seeding eagerly", what, a, b)
		}
		if a, b := direct.pipe.Manager.StateSize(), direct.pipe.Manager.AuditStateSize(); a != b {
			t.Fatalf("%s: ledger %d, audit %d", what, a, b)
		}
		pruned := make([]map[string][]string, len(sides))
		for si, s := range sides {
			pruned[si] = drainPruned(s.pipe)
		}
		for _, ids := range pruned[0] {
			prunes += len(ids)
		}
		feedback.check(t, what+" after drain", direct.pipe.Manager)
		for i := range kws {
			for si, ref := range sides[1:] {
				a, b := direct.pipe.FindMerge(uqs[0][i].ID), ref.pipe.FindMerge(uqs[si+1][i].ID)
				if a.Err != nil || b.Err != nil {
					t.Fatalf("%s: merges failed: %v / %v", what, a.Err, b.Err)
				}
				sameResults(t, what, a.RM.Results(), b.RM.Results())
				if x, y := fmt.Sprint(pruned[0][uqs[0][i].ID]), fmt.Sprint(pruned[si+1][uqs[si+1][i].ID]); x != y {
					t.Fatalf("%s: pruned %s, reference %s", what, x, y)
				}
				for _, e := range append(a.RM.Entries, b.RM.Entries...) {
					if e.Duplicates() != 0 {
						t.Fatalf("%s: %s dropped %d duplicates", what, e.CQ.ID, e.Duplicates())
					}
				}
			}
			for si, s := range sides {
				s.pipe.ATC.Forget(uqs[si][i].ID)
			}
		}
		if a, b := direct.pipe.Snapshot(), built.pipe.Snapshot(); a != b {
			t.Fatalf("%s: work counters\n%+v\nafter factorize.Build\n%+v", what, a, b)
		}
		a, b := direct.pipe.Snapshot(), eager.pipe.Snapshot()
		pulled, a.SeedPulled, b.SeedPulled = a.SeedPulled, 0, 0
		if a != b {
			t.Fatalf("%s: work counters\n%+v\nseeding eagerly\n%+v", what, a, b)
		}
	}
	st, ref := direct.pipe.Manager.PlanCacheStats(), built.pipe.Manager.PlanCacheStats()
	seeded := direct.pipe.Snapshot().SeededRows
	t.Logf("plan cache %+v; evictions %d; seeded %d rows, pulled %d; %d CQs pruned", st, direct.pipe.Manager.Evictions(), seeded, pulled, prunes)
	if st.DirectGrafts == 0 || ref.DirectGrafts != 0 {
		t.Fatalf("direct grafts %d, forced-Build side %d; the differential is vacuous", st.DirectGrafts, ref.DirectGrafts)
	}
	if prunes == 0 {
		t.Fatal("no CQ was pruned; the pruning comparison is vacuous")
	}
	if pulled >= seeded {
		t.Fatalf("the cursors pulled %d of %d seeded rows; the lazy-seed differential is vacuous", pulled, seeded)
	}
	if mode != "unbounded" && direct.pipe.Manager.Evictions() == 0 {
		t.Fatal("nothing was evicted")
	}
}

// drainPruned runs a pipeline's rounds to the end, as Pipeline.Drain does,
// and returns each merge's pruned CQs by user-query id: the rounds in order,
// and the CQs a round pruned in the merge's entry order.
func drainPruned(p *core.Pipeline) map[string][]string {
	out := map[string][]string{}
	recorded := map[*operator.CQEntry]bool{}
	record := func() {
		for _, m := range p.ATC.Merges() {
			for _, e := range m.RM.Entries {
				if e.State == operator.Pruned && !recorded[e] {
					recorded[e] = true
					out[m.RM.UQ.ID] = append(out[m.RM.UQ.ID], e.CQ.ID)
				}
			}
		}
	}
	for p.ATC.RunRound() {
		record()
	}
	record()
	p.Manager.SyncCatalog()
	return out
}

// feedbackCheck compares the catalog feedback the dirty-list sync left with
// what a full walk of the graph writes, over every stream expression the
// graph has held.
type feedbackCheck struct {
	keys map[string]bool
}

func newFeedbackCheck() *feedbackCheck { return &feedbackCheck{keys: map[string]bool{}} }

func (f *feedbackCheck) render(m *qsm.Manager) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(f.keys)) {
		card, ok := m.Cat.ObservedCard(k)
		fmt.Fprintf(&b, "%s streamed=%d card=%v/%v\n", k, m.Cat.StreamedSoFar(k), card, ok)
	}
	return b.String()
}

// check must follow a SyncCatalog.
func (f *feedbackCheck) check(t *testing.T, what string, m *qsm.Manager) {
	t.Helper()
	for _, n := range m.Graph.Nodes() {
		if n.Kind == plangraph.SourceStream {
			f.keys[n.Expr.Key()] = true
		}
	}
	synced := f.render(m)
	qsm.FullSyncCatalog(m)
	if full := f.render(m); full != synced {
		t.Fatalf("%s: the dirty-list sync left\n%s\na full walk writes\n%s", what, synced, full)
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
	var pool [][]string
	for _, s := range w.Submissions {
		pool = append(pool, s.UQ.Keywords)
	}
	for _, kw := range pool {
		lazy, eager := newDiffSide(t, w, false), newDiffSide(t, w, false)
		qsm.SetEagerSeed(eager.pipe.Manager, true)
		sides := []*diffSide{lazy, eager}
		for _, s := range sides {
			for i := 0; i < 2; i++ { // warm: the third run seeds its endpoints
				uq, err := s.exp.Expand("ada", kw, 10)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.pipe.Admit([]batcher.Submission{{At: s.pipe.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: 10}); err != nil {
					t.Fatal(err)
				}
				s.pipe.Drain()
				s.pipe.ATC.Forget(uq.ID)
			}
		}
		merges := make([]*atc.MergeState, len(sides))
		ends := map[string]*plangraph.Node{}
		for i, s := range sides {
			uq, err := s.exp.Expand("ada", kw, 10)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.pipe.Admit([]batcher.Submission{{At: s.pipe.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: 10}); err != nil {
				t.Fatal(err)
			}
			merges[i] = s.pipe.FindMerge(uq.ID)
			if i == 0 {
				for _, q := range uq.CQs {
					ends[q.ID] = s.pipe.Graph.Endpoint(q.ID).Node
				}
			}
		}
		// Step both merges in lockstep, as the controller's round would,
		// until a CQ is pruned holding candidates.
		var pruned *operator.CQEntry
		for pruned == nil {
			var step operator.Step
			for i, s := range sides {
				if step = merges[i].RM.Advance(s.pipe.Env); step.Kind == operator.StepRead {
					step.Source.ReadOne(s.pipe.Env, s.pipe.ATC.Epoch())
				}
				for _, id := range step.PrunedCQs {
					s.pipe.ATC.UnlinkCQ(id)
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
		if pruned == nil {
			for _, s := range sides {
				s.pipe.Drain()
			}
			continue
		}
		for _, s := range sides {
			m := s.pipe.Manager
			m.MemoryBudget = 1
			m.EnforceBudget(m.ATC.Epoch())
			m.MemoryBudget = 0
		}
		if _, live := lazy.pipe.ATC.HasExec(ends[pruned.CQ.ID]); live {
			t.Fatalf("%v: %s's endpoint node survived the eviction", kw, pruned.CQ.ID)
		}
		before := len(merges[0].RM.Results())
		for _, s := range sides {
			s.pipe.Drain()
		}
		sameResults(t, fmt.Sprint(kw), merges[0].RM.Results(), merges[1].RM.Results())
		for _, r := range merges[0].RM.Results()[before:] {
			if r.CQID == pruned.CQ.ID {
				return
			}
		}
	}
	t.Fatal("no pruned CQ emitted after its endpoint node was evicted; the test is vacuous")
}
