package operator

import (
	"math"
	"testing"

	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/scoring"
	"repro/internal/simclock"
	"repro/internal/tuple"
)

func rowSchema() *tuple.Schema {
	return tuple.NewSchema("R",
		tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
}

func mkRow(s *tuple.Schema, id int, score float64) *tuple.Row {
	return tuple.NewRow(tuple.New(s, tuple.Int(int64(id)), tuple.Float(score)))
}

// logBefore is the reference epoch partition: the rows logged with epoch < e,
// in arrival order, by an inline filter over the whole log.
func logBefore(l *Log, e int) []*tuple.Row {
	rows, epochs := l.Export()
	var out []*tuple.Row
	for i, r := range rows {
		if epochs[i] < e {
			out = append(out, r)
		}
	}
	return out
}

func TestLogEpochPartitions(t *testing.T) {
	s := rowSchema()
	var l Log
	l.Append(mkRow(s, 1, 0.9), 1)
	l.Append(mkRow(s, 2, 0.8), 1)
	l.Append(mkRow(s, 3, 0.7), 2)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	before := logBefore(&l, 2)
	if len(before) != 2 || before[0].Part(0).Key().AsInt() != 1 {
		t.Fatalf("logBefore(2) = %v", before)
	}
	if l.countBefore(1) != 0 || l.countBefore(2) != 2 || l.countBefore(3) != 3 {
		t.Error("epoch filtering wrong")
	}
	var rows []*tuple.Row
	var epochs []int
	l.eachFrom(1, func(r *tuple.Row, e int) { rows, epochs = append(rows, r), append(epochs, e) })
	if len(rows) != 2 || epochs[0] != 1 || epochs[1] != 2 {
		t.Errorf("eachFrom(1) = %v %v", rows, epochs)
	}
	ids := l.IdentitySet()
	for id := 1; id <= 3; id++ {
		if !ids.Has(mkRow(s, id, 0)) {
			t.Errorf("identity set lacks row %d", id)
		}
	}
	if ids.Len() != 3 {
		t.Errorf("identities = %d", ids.Len())
	}
	l.Reset()
	if l.Len() != 0 {
		t.Error("reset failed")
	}
}

// moduleBefore collects the module's rows with epoch < maxEpoch through
// EachBefore, in insertion order.
func moduleBefore(m *AccessModule, maxEpoch int) []partialRow {
	var out []partialRow
	m.EachBefore(maxEpoch, func(pr partialRow) { out = append(out, pr) })
	return out
}

func TestAccessModuleProbeAndEpochs(t *testing.T) {
	s := rowSchema()
	m := NewAccessModule([]int{0})
	mk := func(id int, score float64) []*tuple.Tuple {
		return []*tuple.Tuple{tuple.New(s, tuple.Int(int64(id)), tuple.Float(score))}
	}
	m.Insert(mk(1, 0.5), 1)
	m.Insert(mk(1, 0.4), 2)
	m.Insert(mk(2, 0.3), 1)
	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	all := m.AppendProbe(nil, 0, 0, tuple.Int(1), MaxEpochLive)
	if len(all) != 2 {
		t.Fatalf("live probe = %d rows", len(all))
	}
	old := m.AppendProbe(nil, 0, 0, tuple.Int(1), 2)
	if len(old) != 1 || old[0].epoch != 1 {
		t.Fatalf("epoch-filtered probe = %v", old)
	}
	if got := m.AppendProbe(nil, 0, 0, tuple.Int(9), MaxEpochLive); len(got) != 0 {
		t.Error("absent key should be empty")
	}
	// Insert after index built must stay consistent.
	m.Insert(mk(1, 0.2), 3)
	if got := m.AppendProbe(nil, 0, 0, tuple.Int(1), MaxEpochLive); len(got) != 3 {
		t.Errorf("post-index insert missing: %d", len(got))
	}
	if got := moduleBefore(m, 2); len(got) != 2 {
		t.Errorf("EachBefore(2) = %d rows", len(got))
	}
	if len(m.Coverage()) != 1 || m.Coverage()[0] != 0 {
		t.Error("coverage wrong")
	}
}

func TestCandidateHeapOrdering(t *testing.T) {
	s := rowSchema()
	q := &cq.CQ{ID: "CQ1", Atoms: []*cq.Atom{{Rel: "R", Args: []cq.Term{cq.V(0), cq.V(1)}}}, Model: scoring.QSystem(0, []float64{1})}
	entry := NewCQEntry(q, 1, []float64{1})
	sink := NewEndpointSink(entry, []int{0})
	env := &Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(1)), Metrics: &metrics.Counters{}}
	sink.Offer(env, mkRow(s, 1, 0.5))
	sink.Offer(env, mkRow(s, 2, 0.9))
	sink.Offer(env, mkRow(s, 3, 0.7))
	sink.Offer(env, mkRow(s, 2, 0.9)) // duplicate
	if entry.Duplicates() != 1 {
		t.Errorf("duplicates = %d", entry.Duplicates())
	}
	if entry.BufferLen() != 3 {
		t.Fatalf("buffer len = %d", entry.BufferLen())
	}
	if entry.buffer[0].score != 0.9 {
		t.Errorf("heap top = %v", entry.buffer[0].score)
	}
}

// TestAccessModuleIndexMatchesScan pins the chained index to a filtered scan:
// for random rows — some missing the indexed atom's part, epochs out of
// order, keys of every kind including NaN and null — AppendProbe returns
// exactly the stored rows with that key below the epoch bound, in insertion
// order, whether the index was built before the rows arrived or after.
func TestAccessModuleIndexMatchesScan(t *testing.T) {
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	nan := math.NaN()
	keys := []tuple.Value{
		tuple.Int(0), tuple.Int(1), tuple.Int(-7), tuple.Float(1), tuple.Float(0.5),
		tuple.Float(nan), tuple.Float(math.Copysign(0, -1)), tuple.Float(0),
		tuple.String("1"), tuple.String(""), tuple.String("x"), tuple.Null(),
	}
	probes := append([]tuple.Value{tuple.Int(99), tuple.String("absent")}, keys...)
	matches := func(pr partialRow, atom, col int, v tuple.Value) bool {
		p := pr.parts[atom]
		return p != nil && p.Val(col).IndexKey() == v.IndexKey()
	}
	for trial := 0; trial < 40; trial++ {
		rng := dist.New(uint64(trial) + 1)
		early := NewAccessModule([]int{0, 1})
		late := NewAccessModule([]int{0, 1})
		// The early module's indexes exist before any row arrives.
		for atom := 0; atom < 2; atom++ {
			for col := 0; col < 2; col++ {
				early.AppendProbe(nil, atom, col, tuple.Int(0), MaxEpochLive)
			}
		}
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			parts := make([]*tuple.Tuple, 2)
			for atom := range parts {
				if rng.Intn(4) == 0 {
					continue // no part at this atom
				}
				parts[atom] = tuple.New(s, keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))])
			}
			epoch := rng.Intn(5)
			early.Insert(parts, epoch)
			late.Insert(parts, epoch)
		}
		for _, m := range []*AccessModule{early, late} {
			for atom := 0; atom < 2; atom++ {
				for col := 0; col < 2; col++ {
					for _, v := range probes {
						for _, maxEpoch := range []int{0, 2, 4, MaxEpochLive} {
							var want []partialRow
							for _, pr := range moduleBefore(m, maxEpoch) {
								if matches(pr, atom, col, v) {
									want = append(want, pr)
								}
							}
							got := m.AppendProbe(nil, atom, col, v, maxEpoch)
							if len(got) != len(want) {
								t.Fatalf("trial %d (%d,%d)=%s below %d: probe %d rows, scan %d", trial, atom, col, v.Text(), maxEpoch, len(got), len(want))
							}
							for i := range want {
								if &got[i].parts[0] != &want[i].parts[0] || got[i].epoch != want[i].epoch {
									t.Fatalf("trial %d (%d,%d)=%s below %d: row %d out of insertion order", trial, atom, col, v.Text(), maxEpoch, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestIdentSetCollisions covers identities that share a hash: each is held
// once, found again, and counted, whether it landed inline or in overflow.
func TestIdentSetCollisions(t *testing.T) {
	s := newIdentSet(0)
	for _, c := range []struct {
		h     uint64
		id    string
		added bool
	}{
		{7, "a", true}, {7, "b", true}, {7, "a", false}, {7, "c", true},
		{7, "b", false}, {7, "c", false}, {8, "a", true}, {8, "a", false},
	} {
		if got := s.add(c.h, c.id); got != c.added {
			t.Fatalf("add(%d, %q) = %v, want %v", c.h, c.id, got, c.added)
		}
		if !s.has(c.h, c.id) {
			t.Fatalf("has(%d, %q) after add = false", c.h, c.id)
		}
	}
	if s.has(7, "d") || s.has(9, "a") {
		t.Fatal("has reports an identity never added")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}
