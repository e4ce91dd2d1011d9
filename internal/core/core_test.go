package core_test

import (
	"math"
	"testing"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/operator"
	"repro/internal/qsm"
	"repro/internal/remotedb"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestPipelineEndToEnd(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 3})

	// Admit the scenario's first two (concurrent) keyword queries together.
	subs := []batcher.Submission{
		{At: w.Submissions[0].At, UQ: w.Submissions[0].UQ},
		{At: w.Submissions[1].At, UQ: w.Submissions[1].UQ},
	}
	rep, err := p.Admit(subs, mqo.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 {
		t.Errorf("first admit epoch = %d", rep.Epoch)
	}
	p.Drain()
	for _, uq := range []string{"UQ1", "UQ2"} {
		m := p.ATC.MergeByUQ(uq)
		if m == nil || !m.Done || len(m.RM.Results()) == 0 {
			t.Fatalf("%s did not finish with results", uq)
		}
	}
	before := p.Snapshot().TuplesConsumed()

	// Graft the refinement (KQ3) onto the warm pipeline.
	if _, err := p.Admit([]batcher.Submission{{At: p.Env.Clock.Now(), UQ: w.Submissions[2].UQ}}, mqo.Config{K: 50}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	m := p.ATC.MergeByUQ("UQ3")
	if m == nil || len(m.RM.Results()) == 0 {
		t.Fatal("UQ3 did not produce results")
	}
	delta := p.Snapshot().TuplesConsumed() - before
	if delta <= 0 {
		t.Log("UQ3 answered entirely from reused state")
	}
	if p.Graph.Stats().Endpoints != 0 {
		t.Errorf("finished queries should have unlinked endpoints, %d remain", p.Graph.Stats().Endpoints)
	}
}

// TestFailedAdmitRegistersNothing: a two-query batch whose second query
// reads a database the fleet lacks fails as a whole. The first query's merge,
// registered before the second failed, is canceled and forgotten, no query
// stays attached to the graph or holds an endpoint in it, and the pipeline
// admits the next batch.
func TestFailedAdmitRegistersNothing(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	databases := func(uq *cq.UQ) map[string]bool {
		out := map[string]bool{}
		for _, q := range uq.CQs {
			for _, a := range q.Atoms {
				st, err := w.Catalog.Relation(a.Rel)
				if err != nil {
					t.Fatal(err)
				}
				out[st.DB] = true
			}
		}
		return out
	}
	first, second := w.Submissions[1].UQ, w.Submissions[2].UQ
	fleet := remotedb.NewFleet()
	for db := range databases(first) {
		fleet.Add(w.Fleet.MustDB(db))
	}
	missing := ""
	for db := range databases(second) {
		if _, err := fleet.DB(db); err != nil {
			missing = db
		}
	}
	if missing == "" {
		t.Fatalf("%s reads no database %s does not", second.ID, first.ID)
	}

	p := core.NewPipeline(fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 3})
	subs := []batcher.Submission{{At: 0, UQ: first}, {At: 0, UQ: second}}
	if _, err := p.Admit(subs, mqo.Config{K: 50}); err == nil {
		t.Fatalf("admitted %s without database %q", second.ID, missing)
	}
	if n := len(p.ATC.Merges()); n != 0 {
		t.Errorf("%d merges registered after a failed admission", n)
	}
	if n := p.ATC.Attached(); n != 0 {
		t.Errorf("%d queries attached after a failed admission", n)
	}
	if n := p.Graph.Stats().Endpoints; n != 0 {
		t.Errorf("%d endpoints left in the graph after a failed admission", n)
	}

	if _, err := p.Admit(subs[:1], mqo.Config{K: 50}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if m := p.ATC.MergeByUQ(first.ID); m == nil || m.Err != nil || len(m.RM.Results()) == 0 {
		t.Fatalf("%s did not finish with results after the failed batch", first.ID)
	}
}

// TestWarmGraphTopKMatchesCold: a search grafted onto a plan graph an
// overlapping search left behind returns the top-k a fresh pipeline returns
// for the same query, and both equal the brute-force top-k. The first search
// builds a join whose endpoint the second reuses while the optimizer streams
// that join's expression from other sides; the second search's thresholds
// must watch the streams that really feed its endpoint, or they prune
// answers still to come.
func TestWarmGraphTopKMatchesCold(t *testing.T) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{Seed: 3, K: 50}
	run := func(p *core.Pipeline, uq *cq.UQ) []operator.Result {
		t.Helper()
		if _, err := p.Admit([]batcher.Submission{{At: p.Env.Clock.Now(), UQ: uq}}, mqo.Config{K: uq.K}); err != nil {
			t.Fatal(err)
		}
		p.Drain()
		m := p.ATC.MergeByUQ(uq.ID)
		if m == nil || !m.Done || m.Err != nil {
			t.Fatalf("%s did not finish", uq.ID)
		}
		return m.RM.Results()
	}
	pipeline := func() *core.Pipeline {
		p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 3})
		p.Manager.Unit = qsm.UnitUQ
		return p
	}
	keywords := []string{"expression", "binding", "EXPRESSION"}

	ex := service.NewExpander(w, cfg)
	first, err := ex.Expand("ada", []string{"expression", "binding"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ex.Expand("grace", keywords, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := pipeline()
	run(warm, first)
	got := run(warm, second)

	again, err := service.NewExpander(w, cfg).Expand("grace", keywords, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := run(pipeline(), again)

	if len(got) != len(want) || len(want) != cfg.K {
		t.Fatalf("%v (%s): warm graph answered %d, a fresh pipeline %d, want %d", keywords, second.ID, len(got), len(want), cfg.K)
	}
	wrong := 0
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9*math.Abs(want[i].Score) {
			if wrong == 0 {
				t.Errorf("%v (%s): rank %d scores %.6g from %s on the warm graph, %.6g from %s on a fresh pipeline",
					keywords, second.ID, i+1, got[i].Score, got[i].CQID, want[i].Score, want[i].CQID)
			}
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d ranks differ", wrong, len(want))
	}
	scores := func(rs []operator.Result) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.Score
		}
		return out
	}
	if err := coretest.CheckOracle(w, second, scores(got)); err != nil {
		t.Errorf("warm graph: %v", err)
	}
	if err := coretest.CheckOracle(w, again, scores(want)); err != nil {
		t.Errorf("fresh pipeline: %v", err)
	}
}
