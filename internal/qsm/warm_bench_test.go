package qsm_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/batcher"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/mqo"
	"repro/internal/qsm"
	"repro/internal/service"
	"repro/internal/workload"
)

// BenchmarkWarmAdmit measures one repeated search on a warm pipeline —
// expanded, admitted (a plan-cache hit grafted from its record, endpoints
// seeded from the resident logs), run to done and forgotten — the path whose
// cost should follow k and the query's CQ count, not the graph:
//
//   - bio: the first bio suite search (Q System's product model);
//   - gus/topics=N: a GUS search with 1, 4 and 16 unrelated topics resident
//     beside it (suite searches and their one-word variants sharing no
//     keyword with it, each run once before timing starts), which should
//     take about the same time and allocations;
//   - pfam/discover and pfam/banks: the first Pfam suite search under the
//     two sum models, DISCOVER (Pfam's own) and BANKS, whose seed cursors
//     bound unpulled rows by per-atom maxima only.
//
// Each reports the pre-epoch rows seeded and pulled per search.
func BenchmarkWarmAdmit(b *testing.B) {
	bio := sync.OnceValues(workload.Bio)
	gus := sync.OnceValues(func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) })
	pfam := sync.OnceValues(func() (*workload.Workload, error) { return workload.Pfam(workload.PfamScaleDefault()) })
	b.Run("bio", func(b *testing.B) {
		w := loadBench(b, bio)
		warmAdmit(b, w, w.Submissions[0].UQ.Keywords, nil)
	})
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("gus/topics=%d", n), func(b *testing.B) {
			w := loadBench(b, gus)
			kw := w.Submissions[6].UQ.Keywords // [domain channel]
			topics := unrelatedTopics(w, kw)
			if n > len(topics) {
				b.Fatalf("only %d unrelated topics", len(topics))
			}
			warmAdmit(b, w, kw, topics[:n])
		})
	}
	b.Run("pfam/discover", func(b *testing.B) {
		w := loadBench(b, pfam)
		warmAdmit(b, w, w.Submissions[0].UQ.Keywords, nil)
	})
	b.Run("pfam/banks", func(b *testing.B) {
		w := *loadBench(b, pfam)
		w.Gen.Family = candidates.FamilyBANKS
		warmAdmit(b, &w, w.Submissions[0].UQ.Keywords, nil)
	})
}

func loadBench(b *testing.B, load func() (*workload.Workload, error)) *workload.Workload {
	w, err := load()
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// unrelatedTopics lists a workload's suite searches and their first overlap
// variants that share no keyword with kw.
func unrelatedTopics(w *workload.Workload, kw []string) [][]string {
	var topics [][]string
	seen := map[string]bool{}
	for _, s := range w.Submissions {
		for _, t := range append([][]string{s.UQ.Keywords}, workload.OverlapVariants(s.UQ.Keywords)[:1]...) {
			if key := fmt.Sprint(t); !seen[key] && !slices.ContainsFunc(t, func(k string) bool { return slices.Contains(kw, k) }) {
				seen[key] = true
				topics = append(topics, t)
			}
		}
	}
	return topics
}

// warmAdmit runs each of topics once, then kw until the plan cache and the
// catalog feedback settle, and times repeats of kw, which must be grafted
// directly.
func warmAdmit(b *testing.B, w *workload.Workload, kw []string, topics [][]string) {
	p := core.NewPipeline(w.Fleet, w.Catalog, core.Options{Mode: qsm.ShareAll, Seed: 9})
	p.Manager.Unit = qsm.UnitUQ
	exp := service.NewExpander(w, service.Config{Seed: 3, K: 10})
	run := func(kw []string) {
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
	for _, t := range topics {
		run(t)
	}
	// Let the plan cache and the catalog feedback settle: repeat until three
	// repeats in a row are grafted directly (Pfam takes about ten).
	for i, streak := 0, 0; streak < 3; i++ {
		if i == 50 {
			b.Fatal("the repeated search was never grafted directly three times in a row")
		}
		grafts := p.Manager.PlanCacheStats().DirectGrafts
		run(kw)
		if streak++; p.Manager.PlanCacheStats().DirectGrafts == grafts {
			streak = 0
		}
	}
	before, start := p.Manager.PlanCacheStats().DirectGrafts, p.Snapshot()
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		run(kw)
		n++
	}
	if p.Manager.PlanCacheStats().DirectGrafts == before {
		b.Fatal("the repeated search was never grafted directly")
	}
	end := p.Snapshot()
	b.ReportMetric(float64(end.SeededRows-start.SeededRows)/float64(n), "seeded/op")
	b.ReportMetric(float64(end.SeedPulled-start.SeedPulled)/float64(n), "pulled/op")
}
