package core_test

import (
	"testing"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/mqo"
	"repro/internal/qsm"
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
