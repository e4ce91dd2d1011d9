package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/andor"
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/factorize"
	"repro/internal/mqo"
	"repro/internal/plangraph"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// isolatedReps is how often each isolated layer is timed over the recorded
// queries; the metric is the median of the repetitions' means.
const isolatedReps = 3

// isolatedLayers times the optimizer's parts outside the engine, each on the
// conjunctive-query groups one pass of the workload really posed, and the
// admission journal no timed workload enables. Queries are cloned per call so
// no timing sees another's subexpression memo.
func isolatedLayers(w *workload.Workload, recorded []*cq.UQ, p params, m readings) error {
	if len(recorded) == 0 {
		return nil
	}
	clones := func(uq *cq.UQ) []*cq.CQ {
		out := make([]*cq.CQ, len(uq.CQs))
		for i, q := range uq.CQs {
			out[i] = q.Clone()
		}
		return out
	}
	// perSearch runs fn over every recorded query, isolatedReps times, and
	// returns the median over repetitions of the mean microseconds per search.
	// fn returns the time of the call it measures, so it can prepare inputs
	// outside the clock.
	perSearch := func(fn func(uq *cq.UQ, qs []*cq.CQ) (time.Duration, error)) (float64, error) {
		var reps []float64
		for r := 0; r < isolatedReps; r++ {
			var total time.Duration
			for _, uq := range recorded {
				d, err := fn(uq, clones(uq))
				if err != nil {
					return 0, err
				}
				total += d
			}
			reps = append(reps, float64(total)/float64(time.Microsecond)/float64(len(recorded)))
		}
		return median(reps), nil
	}
	clock := func(f func() error) (time.Duration, error) {
		t := time.Now()
		err := f()
		return time.Since(t), err
	}

	cat := w.Catalog.Fork()
	cm := costmodel.New(cat, costmodel.DefaultParams())
	maxAtoms := mqo.Config{}.Defaults().MaxCandidateAtoms

	for _, layer := range []struct {
		metric string
		fn     func(uq *cq.UQ, qs []*cq.CQ) (time.Duration, error)
	}{
		{"cq.canonicalize_us", func(_ *cq.UQ, qs []*cq.CQ) (time.Duration, error) {
			return clock(func() error {
				for _, q := range qs {
					cq.Canonicalize(q.Atoms)
				}
				return nil
			})
		}},
		{"andor.add_query_us", func(_ *cq.UQ, qs []*cq.CQ) (time.Duration, error) {
			return clock(func() error {
				g := andor.New()
				for _, q := range qs {
					g.AddQuery(q, maxAtoms)
				}
				return nil
			})
		}},
		{"mqo.optimize_isolated_us", func(uq *cq.UQ, qs []*cq.CQ) (time.Duration, error) {
			return clock(func() error {
				_, err := mqo.Optimize(qs, cm, mqo.Config{K: uq.K})
				return err
			})
		}},
		{"factorize.build_us", func(uq *cq.UQ, qs []*cq.CQ) (time.Duration, error) {
			res, err := mqo.Optimize(qs, cm, mqo.Config{K: uq.K})
			if err != nil {
				return 0, err
			}
			g := plangraph.New("")
			return clock(func() error { return factorize.Build(g, qs, res.Inputs, cat) })
		}},
	} {
		v, err := perSearch(layer.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", layer.metric, err)
		}
		m.set(perLayer, layer.metric, v)
	}

	dir, err := os.MkdirTemp(p.Dir, "journal-")
	if err != nil {
		return err
	}
	store, err := recovery.Open(dir)
	if err != nil {
		return err
	}
	journal, _, err := store.OpenJournal()
	if err != nil {
		return err
	}
	v, err := perSearch(func(uq *cq.UQ, _ []*cq.CQ) (time.Duration, error) {
		return clock(func() error {
			if err := journal.Admit([]recovery.QueryRecord{{ID: uq.ID, Keywords: uq.Keywords, K: uq.K}}); err != nil {
				return err
			}
			return journal.Done(uq.ID)
		})
	})
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.set(perLayer, "recovery.journal_admit_us", v)
	return nil
}
