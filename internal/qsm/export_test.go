package qsm

import (
	"repro/internal/cq"
	"repro/internal/mqo"
)

// PlanCacheCap exposes the entry cap to the external tests.
const PlanCacheCap = planCacheCap

// ResetPlanCache empties the plan cache; calling it before every Admit gives
// the cache-less engine the differential tests replay against.
func (m *Manager) ResetPlanCache() { m.plans = newPlanCache() }

// PlanFor sends one optimization group through the plan cache exactly as
// Admit does and reports whether the cache served it.
func (m *Manager) PlanFor(qs []*cq.CQ, cfg mqo.Config) (res *mqo.Result, hit bool, err error) {
	report := &AdmitReport{}
	out := m.optimizeGroups([]optGroup{{qs: qs}}, cfg, report)
	return out[0].res, report.PlanCacheHits == 1, out[0].err
}

// SetForceBuild makes every graft of m run factorize.Build, as a reference
// for the direct graft a live graft record allows.
func SetForceBuild(m *Manager, on bool) { m.forceBuild = on }
