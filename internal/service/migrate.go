package service

import (
	"fmt"

	"repro/internal/state"
)

// Live topic migration at the engine. A topic is a canonical keyword set;
// its plan-graph footprint (the node keys its merges touched) is tracked by
// the executor at admission, so exporting a topic means exporting exactly
// those of its nodes that are idle and structurally evictable. All engine
// mutation runs on the executor goroutine via exec; the front desk
// (fleet.Frontend.MigrateTopic) only moves encoded bytes between engines.

// ExportTopic serializes and locally discards the retained state of a
// topic's idle plan segments. The export is empty (but valid) when the
// engine holds nothing idle for the topic.
func (s *Service) ExportTopic(keywords []string) (*state.TopicExport, error) {
	var exp *state.TopicExport
	s.exec(func() { exp = s.exportTopic(keywords) })
	return exp, nil
}

// ExportAll serializes and locally discards every idle plan segment the
// engine retains — the drain handoff of a shard process shutting down.
func (s *Service) ExportAll() (*state.TopicExport, error) {
	var exp *state.TopicExport
	s.exec(func() { exp = s.exportAll() })
	return exp, nil
}

// ImportTopic stages a migrated export behind the engine's consistency gate.
// Returned counts are ImportSegments' (installed, dropped, staged rows).
func (s *Service) ImportTopic(exp *state.TopicExport) (installed, dropped, rows int, err error) {
	if exp == nil {
		return 0, 0, 0, fmt.Errorf("service: import of nil export")
	}
	s.exec(func() { installed, dropped, rows = s.mgr.ImportSegments(exp) })
	return installed, dropped, rows, nil
}
