// Package candidatestest holds what the expansion tests of several packages
// share: a rendering of an expansion's whole outcome to compare two
// generators by, and the pool of keyword sets they pose.
package candidatestest

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/candidates"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/workload"
)

// Describe renders everything an expansion returned: error text, or the
// query's id, k, keywords and every conjunctive query's id, owner, atoms,
// head vars and scoring model with its floats bit for bit.
func Describe(uq *cq.UQ, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s k=%d %q\n", uq.ID, uq.K, uq.Keywords)
	for _, q := range uq.CQs {
		fmt.Fprintf(&b, "  %s of %s head=%v %s static=%x weights=", q, q.UQID, q.HeadVars, q.Model.Label, math.Float64bits(q.Model.Static))
		for _, w := range q.Model.Weights {
			fmt.Fprintf(&b, "%x,", math.Float64bits(w))
		}
		fmt.Fprintf(&b, " agg=%v\n", q.Model.AggKind)
	}
	return b.String()
}

// GenConfig is the generation config the workload's own suite was built
// with, pointed at its graph and catalog.
func GenConfig(w *workload.Workload) candidates.Config {
	cfg := w.Gen
	cfg.Graph, cfg.Catalog = w.Schema, w.Catalog
	return cfg
}

// Pool is the keyword sets a differential run poses: the workload's suite,
// its overlap variants (one drops a keyword, one repeats the first in upper
// case), the suite reversed and capitalized, a keyword that matches nothing,
// the empty search, and — when the graph has one — a pair of indexed terms
// no candidate network connects.
func Pool(w *workload.Workload) [][]string {
	var pool [][]string
	for _, s := range w.Submissions {
		kws := s.UQ.Keywords
		pool = append(pool, kws)
		pool = append(pool, workload.OverlapVariants(kws)...)
		rev := make([]string, len(kws))
		for i, kw := range kws {
			rev[len(kws)-1-i] = strings.ToUpper(kw[:1]) + kw[1:]
		}
		pool = append(pool, rev)
	}
	pool = append(pool, []string{pool[0][0], "quasiparticle"}, nil)
	cfg := GenConfig(w)
	terms := w.Schema.Terms()
	for _, a := range terms {
		for _, b := range terms {
			_, err := candidates.Generate(cfg, "probe", []string{a, b}, 5, dist.New(1))
			if err != nil && strings.Contains(err.Error(), "no candidate network connects") {
				return append(pool, []string{a, b})
			}
		}
	}
	return pool
}
