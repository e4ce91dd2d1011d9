package atc_test

import (
	"testing"

	"repro/internal/atc"
	"repro/internal/core/coretest"
)

// TestReviveDifferential runs coretest's schedules on an engine that
// re-binds parked segments and on one that re-derives every revived
// segment's history. After every drain the answers, the source tuples read
// and every node's log (row identities and epoch stamps, in order) must be
// equal, and the re-binding engine may do no more join probes and replay no
// more rows. Emission stamps are not compared: re-binding instead of
// re-joining moves the virtual clock.
func TestReviveDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("each engine runs on one goroutine; see raceEnabled")
	}
	coretest.Run(t, func(rebind, forced *coretest.Side) coretest.Checks {
		atc.SetForceRecover(forced.Pipe.ATC, true)
		return coretest.Checks{
			Drained: func(t *testing.T, s *coretest.Step) {
				for i := range s.UQs[0] {
					ms := s.Merges(i)
					coretest.Same(t, s.What, "answers", coretest.Answers(ms[0].RM.Results(), false), coretest.Answers(ms[1].RM.Results(), false))
				}
				r, f := rebind.Pipe.Snapshot(), forced.Pipe.Snapshot()
				coretest.Same(t, s.What, "source tuples", r.TuplesConsumed(), f.TuplesConsumed())
				if r.JoinProbes > f.JoinProbes || r.ReplayTuples > f.ReplayTuples {
					t.Fatalf("%s: %d join probes and %d replayed rows, forced recovery %d and %d",
						s.What, r.JoinProbes, r.ReplayTuples, f.JoinProbes, f.ReplayTuples)
				}
				coretest.SameLogs(t, s.What, coretest.NodeLogs(rebind.Pipe.Graph, rebind.Pipe.ATC), coretest.NodeLogs(forced.Pipe.Graph, forced.Pipe.ATC))
			},
			Done: func(t *testing.T, s *coretest.Step) {
				r, f := rebind.Pipe.Snapshot(), forced.Pipe.Snapshot()
				t.Logf("re-bound %d revivals; join probes %d vs %d, replayed rows %d vs %d; evictions %d, revivals from spill %d",
					r.RevivalsRebound, r.JoinProbes, f.JoinProbes, r.ReplayTuples, f.ReplayTuples,
					rebind.Pipe.Manager.Evictions(), r.RevivalsFromSpill)
				if r.RevivalsRebound == 0 || r.JoinProbes >= f.JoinProbes || s.Mode != "unbounded" && rebind.Pipe.Manager.Evictions() == 0 ||
					s.Mode == "spill" && r.RevivalsFromSpill == 0 {
					t.Fatal("the differential is vacuous: it needs a re-bound revive, fewer join probes than forced recovery and, when state is bounded, evictions (and spill revivals when spilling)")
				}
			},
		}
	})
}
