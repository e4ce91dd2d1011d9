// Package coretest holds what the engine differentials of several packages
// share: a schedule driver that runs a production engine and a reference
// through the same admissions, drains and catalog changes, and the answer
// and node-log comparisons more than one of them makes.
package coretest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/andor"
	"repro/internal/atc"
	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/plangraph"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Side is one engine with its own front desk. Sides built from one workload
// expand the same calls to identical user queries on distinct *cq.CQs.
type Side struct {
	Pipe *core.Pipeline
	Exp  *service.Expander
}

// NewSide builds a ShareAll engine that optimizes each user query alone,
// spilling to a temporary directory when spill is set.
func NewSide(t testing.TB, w *workload.Workload, spill bool) *Side {
	t.Helper()
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 9})
	p.Manager.Unit = qsm.UnitUQ
	if spill {
		if err := p.Manager.EnableSpill(t.TempDir(), p.Manager.DefaultResolver()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Manager.State.Close() }) //nolint:errcheck
	}
	return &Side{Pipe: p, Exp: service.NewExpander(w, service.Config{Seed: 3, K: 10})}
}

// Search expands one search by user and admits it alone.
func (s *Side) Search(t testing.TB, user string, kws []string) *cq.UQ {
	t.Helper()
	uq, err := s.Exp.Expand(user, kws, 10)
	if err == nil {
		_, err = s.Pipe.Admit([]batcher.Submission{{At: s.Pipe.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: 10})
	}
	if err != nil {
		t.Fatalf("%v: %v", kws, err)
	}
	return uq
}

// Evict enforces a budget of budget rows on m once.
func Evict(m *qsm.Manager, budget int) {
	m.MemoryBudget = budget
	m.EnforceBudget()
	m.MemoryBudget = 0
}

// Step is one admission as the comparisons see it; index 0 of each pair is
// the production engine, index 1 the reference.
type Step struct {
	What, Mode string
	Sides      [2]*Side
	UQs        [2][]*cq.UQ // the batch, in submission order
	Reports    [2]*qsm.AdmitReport
	Pruned     [2]map[string][]string // by user query, once drained
	Streams    map[string]bool        // every stream expression key a graph has held
}

// Merges returns both sides' merges of the batch's i-th search.
func (s *Step) Merges(i int) [2]*atc.MergeState {
	return [2]*atc.MergeState{s.Sides[0].Pipe.ATC.MergeByUQ(s.UQs[0][i].ID), s.Sides[1].Pipe.ATC.MergeByUQ(s.UQs[1][i].ID)}
}

// Checks are a differential's comparisons, each optional: Admit runs after
// the catalog sync before an admission, Admitted after the admission,
// Drained after the drain (before the batch is forgotten), Done at the end.
type Checks struct {
	Admit, Admitted, Drained, Done func(t *testing.T, s *Step)
}

func call(check func(*testing.T, *Step), t *testing.T, s *Step) {
	if check != nil {
		check(t, s)
	}
}

var suites = []struct {
	name  string
	load  func() (*workload.Workload, error)
	steps [3]int // unbounded, discard, spill
}{
	{"bio", workload.Bio, [3]int{80, 160, 160}},
	{"gus", func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) }, [3]int{40, 90, 90}},
	{"pfam", func() (*workload.Workload, error) { return workload.Pfam(workload.PfamScaleDefault()) }, [3]int{40, 40, 40}},
}

// Run drives the bio, GUS and Pfam suites, with state unbounded and under
// discard and spill eviction, through a fresh production engine and a fresh
// reference in lockstep; with cases given, only the cases so named ("bio/spill"
// and the like). setup gets both engines before the first step, configures
// the reference and returns the run's comparisons. Each step
//
//   - when state is bounded, one time in twelve, evicts both sides down to
//     half their ledger;
//   - one time in twelve records an observed cardinality on an expression
//     the last search weighed that no stream node has held (production
//     writes one only at a catalog sync, from a stream's position);
//   - syncs both catalogs and expands a batch (one in four holds two
//     searches) from the suite's searches and their overlap variants,
//     posed by three users whose scoring coefficients evolve per search,
//     with the CQ order permuted one time in three; then calls Admit;
//   - admits the batch on both sides, checks every attached query's
//     threshold groups against its side's graph (CheckThresholds) and every
//     streamed access module against its producer's log (CheckModules);
//     then calls Admitted;
//   - drains both sides round by round, recording pruned CQs; then calls
//     Drained, both sides forget the batch, and their modules are checked
//     again.
func Run(t *testing.T, setup func(prod, ref *Side) Checks, cases ...string) {
	for _, suite := range suites {
		w, err := suite.load()
		if err != nil {
			t.Fatal(err)
		}
		var pool [][]string
		for _, s := range w.Submissions {
			pool = append(append(pool, s.UQ.Keywords), workload.OverlapVariants(s.UQ.Keywords)...)
		}
		for mi, mode := range []string{"unbounded", "discard", "spill"} {
			if len(cases) > 0 && !slices.Contains(cases, suite.name+"/"+mode) {
				continue
			}
			t.Run(suite.name+"/"+mode, func(t *testing.T) {
				s := &Step{Mode: mode, Streams: map[string]bool{}}
				s.Sides = [2]*Side{NewSide(t, w, mode == "spill"), NewSide(t, w, mode == "spill")}
				checks := setup(s.Sides[0], s.Sides[1])
				rng := dist.New(53)
				for step := 0; step < suite.steps[mi]; step++ {
					s.step(t, rng, pool, step, checks)
				}
				call(checks.Done, t, s)
			})
		}
	}
}

func (s *Step) step(t *testing.T, rng *dist.RNG, pool [][]string, step int, checks Checks) {
	if s.Mode != "unbounded" && rng.Intn(12) == 0 {
		for _, side := range s.Sides {
			Evict(side.Pipe.Manager, 1+side.Pipe.Manager.StateSize()/2)
		}
	}
	if rng.Intn(12) == 0 && s.UQs[0] != nil {
		var keys []string
		for _, k := range weighedKeys(s.UQs[0][len(s.UQs[0])-1]) {
			if !s.Streams[k] {
				keys = append(keys, k)
			}
		}
		if len(keys) > 0 {
			key, card := keys[rng.Intn(len(keys))], float64(1+rng.Intn(400))
			for _, side := range s.Sides {
				side.Pipe.Catalog.RecordExprCard(key, card)
			}
		}
	}
	users := []string{"ada", "grace", "edsger"}
	kws, who := make([][]string, 1+rng.Intn(4)/3), make([]string, 0, 2)
	for i := range kws {
		kws[i] = pool[rng.Intn(len(pool))]
		who = append(who, users[rng.Intn(len(users))])
	}
	s.What = fmt.Sprintf("step %d %v", step, kws)
	for si, side := range s.Sides {
		side.Pipe.Manager.SyncCatalog()
		s.UQs[si] = make([]*cq.UQ, len(kws))
		for i := range kws {
			var err error
			if s.UQs[si][i], err = side.Exp.Expand(who[i], kws[i], 10); err != nil {
				t.Fatalf("%s: expand: %v", s.What, err)
			}
		}
	}
	for i := range kws {
		if rng.Intn(3) != 0 {
			continue
		}
		for j := len(s.UQs[0][i].CQs) - 1; j > 0; j-- { // the same shuffle on both sides
			k := rng.Intn(j + 1)
			for _, uqs := range s.UQs {
				uqs[i].CQs[j], uqs[i].CQs[k] = uqs[i].CQs[k], uqs[i].CQs[j]
			}
		}
	}
	call(checks.Admit, t, s)
	for si, side := range s.Sides {
		var subs []batcher.Submission
		for _, uq := range s.UQs[si] {
			subs = append(subs, batcher.Submission{At: side.Pipe.Env.Clock.Now(), UQ: uq})
		}
		var err error
		if s.Reports[si], err = side.Pipe.Admit(subs, mqo.Config{K: 10}); err != nil {
			t.Fatalf("%s: admit: %v", s.What, err)
		}
		CheckThresholds(t, s.What, side.Pipe)
		CheckModules(t, s.What, side.Pipe)
		for _, n := range side.Pipe.Graph.Nodes() {
			if n.Kind == plangraph.SourceStream {
				s.Streams[n.Expr.Key()] = true
			}
		}
	}
	call(checks.Admitted, t, s)
	for si, side := range s.Sides {
		s.Pruned[si] = drainPruned(side.Pipe)
	}
	for i := range kws {
		if m := s.Merges(i); m[0].Err != nil || m[1].Err != nil {
			t.Fatalf("%s: merges failed: %v / %v", s.What, m[0].Err, m[1].Err)
		}
	}
	call(checks.Drained, t, s)
	for si, side := range s.Sides {
		for _, uq := range s.UQs[si] {
			side.Pipe.ATC.Forget(uq.ID)
		}
		CheckModules(t, s.What, side.Pipe)
	}
}

// CheckModules requires every streamed access module of p's join nodes to
// hold its producer's log prefix. Live arrivals and preloads insert the
// producer's own rows in log order; a segment restore inserts new row
// objects in the order they were spilled, which need not be the producer's
// current log order (DESIGN.md, "Block storage"), and only rows the
// producer logs later follow them. So a module of n rows is its first r
// restored rows — as a multiset of identity hashes, the producer's first r
// logged rows — then the producer's rows r to n, row for row.
func CheckModules(t testing.TB, what string, p *core.Pipeline) {
	t.Helper()
	for _, n := range p.Graph.Nodes() {
		x, ok := p.ATC.HasExec(n)
		if !ok || n.Kind != plangraph.Join {
			continue
		}
		for i, e := range n.Inputs {
			m := x.Module(i)
			if e.Probe || m.Len() == 0 {
				continue
			}
			px, ok := p.ATC.HasExec(e.From)
			if !ok || px.Log.Len() < m.Len() {
				t.Fatalf("%s: node %s input %d holds %d rows, its producer logs fewer (exec %v)", what, n.Key, i, m.Len(), ok)
			}
			// restored counts the rows before the first of the producer's
			// own; sums and squares aggregate both sides' identity hashes.
			j, restored, bad := 0, -1, -1
			var sum, sq [2]uint64
			m.EachBefore(operator.MaxEpochLive, func(r *tuple.Row) {
				lr := px.Log.Row(j)
				switch {
				case restored < 0 && r != lr:
					for k, h := range [2]uint64{r.IdentityHash(), lr.IdentityHash()} {
						sum[k] += h
						sq[k] += h * h
					}
				case restored < 0:
					restored = j
				case r != lr && bad < 0:
					bad = j
				}
				j++
			})
			if bad >= 0 {
				t.Fatalf("%s: node %s input %d row %d is not its producer's log row %d, after %d restored rows", what, n.Key, i, bad, bad, restored)
			}
			if sum[0] != sum[1] || sq[0] != sq[1] {
				r := max(restored, j)
				t.Fatalf("%s: node %s input %d: its first %d rows are not, as a multiset, its producer's first %d log rows", what, n.Key, i, r, r)
			}
		}
	}
}

// CheckThresholds requires every query attached to p's merges to watch the
// streams that really feed its endpoint: its threshold groups' sources are
// exactly the stream leaves under the endpoint's node through non-probe
// edges, and their atoms partition the query's streamed atoms — every atom
// reached through no probe edge is in one group, and no other atom in any.
func CheckThresholds(t testing.TB, what string, p *core.Pipeline) {
	t.Helper()
	for _, m := range p.ATC.Merges() {
		for _, e := range m.RM.Entries {
			ep := p.Graph.Endpoint(e.CQ.ID)
			if ep == nil {
				continue // unlinked
			}
			var leaves []*plangraph.Node
			probed := make([]bool, len(e.CQ.Atoms))
			var walk func(n *plangraph.Node, atoms []int, probe bool)
			walk = func(n *plangraph.Node, atoms []int, probe bool) {
				if len(n.Inputs) == 0 {
					if !probe && n.Kind == plangraph.SourceStream {
						leaves = append(leaves, n)
						return
					}
					for _, a := range atoms {
						probed[a] = true
					}
					return
				}
				for _, in := range n.Inputs {
					sub := make([]int, len(in.AtomMap))
					for i, to := range in.AtomMap {
						sub[i] = atoms[to]
					}
					walk(in.From, sub, probe || in.Probe)
				}
			}
			walk(ep.Node, ep.AtomMap, false)
			var sources []*plangraph.Node
			groups := make([]int, len(e.CQ.Atoms)) // per atom, the groups holding it
			for _, g := range e.Groups {
				sources = append(sources, g.Source.Node)
				for _, a := range g.Atoms {
					groups[a]++
				}
			}
			byKey := func(a, b *plangraph.Node) int { return strings.Compare(a.Key, b.Key) }
			slices.SortFunc(leaves, byKey)
			slices.SortFunc(sources, byKey)
			if !slices.Equal(sources, leaves) {
				t.Fatalf("%s: %s's threshold groups watch %v, but the stream leaves under %s are %v",
					what, e.CQ.ID, nodeKeys(sources), ep.Node.Key, nodeKeys(leaves))
			}
			for a, n := range groups {
				want := 1
				if probed[a] {
					want = 0
				}
				if n != want {
					t.Fatalf("%s: %s's atom %d (probed: %v) is in %d threshold groups", what, e.CQ.ID, a, probed[a], n)
				}
			}
		}
	}
}

func nodeKeys(ns []*plangraph.Node) []string {
	keys := make([]string, len(ns))
	for i, n := range ns {
		keys[i] = n.Key
	}
	return keys
}

// weighedKeys returns the expression keys mqo.Optimize weighs for uq: its
// AND-OR memo's, chosen inputs and rejected candidates alike, and each
// query's full expression, whose estimate sets the stream depth.
func weighedKeys(uq *cq.UQ) []string {
	memo := andor.New()
	for _, q := range uq.CQs {
		memo.AddQuery(q, mqo.Config{K: 10}.Defaults().MaxCandidateAtoms)
	}
	keys := memo.Keys()
	for _, q := range uq.CQs {
		if k := q.FullExpr().Key(); memo.Node(k) == nil {
			keys = append(keys, k)
		}
	}
	return keys
}

// drainPruned runs a pipeline's rounds to the end, as Pipeline.Drain does,
// and returns each merge's pruned CQs by user-query id, in the order the
// rounds pruned them (entry order within a round).
func drainPruned(p *core.Pipeline) map[string][]string {
	out, seen := map[string][]string{}, map[*operator.CQEntry]bool{}
	for more := true; more; {
		more = p.ATC.RunRound()
		for _, m := range p.ATC.Merges() {
			for _, e := range m.RM.Entries {
				if e.State == operator.Pruned && !seen[e] {
					seen[e] = true
					out[m.RM.UQ.ID] = append(out[m.RM.UQ.ID], e.CQ.ID)
				}
			}
		}
	}
	p.Manager.SyncCatalog()
	return out
}

// Same requires got and want to print alike.
func Same(t testing.TB, what, name string, got, want any) {
	t.Helper()
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Fatalf("%s: %s\n%s\nreference\n%s", what, name, g, w)
	}
}

// Answers renders answers in order: score, CQ and row identity, and with
// stamps also the emission instant.
func Answers(rs []operator.Result, stamps bool) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprint(r.Score, " ", r.CQID, " ", r.Row.Identity())
		if stamps {
			out[i] += fmt.Sprint(" at ", r.At)
		}
	}
	return out
}

// NodeLog is a node's log as Log.Export hands it out. Logs only grow, so a
// capture keeps the prefix it saw.
type NodeLog struct {
	Rows   []*tuple.Row
	Epochs []int
}

// NodeLogs captures every node's log, keyed by node key.
func NodeLogs(g *plangraph.Graph, c *atc.ATC) map[string]NodeLog {
	out := map[string]NodeLog{}
	for _, n := range g.Nodes() {
		if x, ok := c.HasExec(n); ok {
			rows, epochs := x.Log.Export()
			out[n.Key] = NodeLog{rows, epochs}
		}
	}
	return out
}

// SameLogs requires the same nodes to hold state with equal logs: the same
// row identities with the same epoch stamps, row for row.
func SameLogs(t testing.TB, what string, got, want map[string]NodeLog) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes hold state, want %d", what, len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok || len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: node %s logs %d rows (held: %v), want %d", what, key, len(g.Rows), ok, len(w.Rows))
		}
		for i, r := range w.Rows {
			if g.Rows[i].Identity() != r.Identity() || g.Epochs[i] != w.Epochs[i] {
				t.Fatalf("%s: node %s log row %d is %s at epoch %d, want %s at epoch %d",
					what, key, i, g.Rows[i].Identity(), g.Epochs[i], r.Identity(), w.Epochs[i])
			}
		}
	}
}
