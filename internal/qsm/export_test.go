package qsm

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/mqo"
	"repro/internal/plangraph"
)

// PlanCacheCap exposes the entry cap to the external tests.
const PlanCacheCap = planCacheCap

// PlanString renders an optimizer result completely: cost, candidate count,
// and per input its expression, mode, database and every consumer with its
// atom mapping. Two results that render equal graft identically.
func PlanString(res *mqo.Result) string {
	out := fmt.Sprintf("cost=%v candidates=%d\n", res.Cost, res.CandidateCount)
	for _, in := range res.Inputs {
		uses := map[string]string{} // printed in key order
		for id, occ := range in.Uses {
			uses[id] = fmt.Sprint(occ.CQ.ID, occ.AtomOf)
		}
		out += fmt.Sprintf("%s %v %s %v\n", in.Expr.Key(), in.Mode, in.DB, uses)
	}
	return out
}

// ResetPlanCache empties the plan cache; calling it before every Admit gives
// the cache-less engine the differential tests replay against.
func (m *Manager) ResetPlanCache() { m.plans = newPlanCache() }

// PlanFor sends one optimization group through the plan cache exactly as
// Admit does and reports whether the cache served it.
func (m *Manager) PlanFor(qs []*cq.CQ, cfg mqo.Config) (res *mqo.Result, hit bool, err error) {
	report := &AdmitReport{}
	out := m.optimizeGroups([]optGroup{{qs: qs}}, cfg, report)
	if out[0].err == nil {
		res = out[0].result()
	}
	return res, report.PlanCacheHits == 1, out[0].err
}

// SetEagerSeed makes every endpoint of m buffer its whole pre-epoch log at
// admission (EndpointSink.SeedEager), as a reference for the seed cursor.
func SetEagerSeed(m *Manager, on bool) { m.eagerSeed = on }

// FullSyncCatalog is the catalog sync the dirty list replaced: it visits
// every node of the graph and records every stream exec's position, and its
// cardinality once exhausted.
func FullSyncCatalog(m *Manager) {
	for _, n := range m.Graph.Nodes() {
		x, ok := m.ATC.HasExec(n)
		if !ok || n.Kind != plangraph.SourceStream || x.Stream == nil {
			continue
		}
		key := n.Expr.Key()
		m.Cat.RecordStreamed(key, x.Stream.Pos())
		if x.Stream.Exhausted() {
			m.Cat.RecordExprCard(key, float64(x.Stream.Len()))
		}
	}
}
