package operator

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
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

func TestLogEpochPartitions(t *testing.T) {
	s := rowSchema()
	var l Log
	l.Append(mkRow(s, 1, 0.9), 1)
	l.Append(mkRow(s, 2, 0.8), 1)
	l.Append(mkRow(s, 3, 0.7), 2)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	before := l.Before(2)
	if len(before) != 2 || before[0].Part(0).Key().AsInt() != 1 {
		t.Fatalf("Before(2) = %v", before)
	}
	if len(l.Before(1)) != 0 || len(l.Before(3)) != 3 {
		t.Error("epoch filtering wrong")
	}
	rows, epochs := l.RowsFrom(1)
	if len(rows) != 2 || epochs[0] != 1 || epochs[1] != 2 {
		t.Errorf("RowsFrom(1) = %v %v", rows, epochs)
	}
	ids := l.Identities()
	if len(ids) != 3 {
		t.Errorf("identities = %d", len(ids))
	}
	l.Reset()
	if l.Len() != 0 {
		t.Error("reset failed")
	}
}

func TestLogBeforeSortedByProduct(t *testing.T) {
	s := rowSchema()
	var l Log
	// Append out of score order (join nodes log in production order).
	l.Append(mkRow(s, 1, 0.2), 1)
	l.Append(mkRow(s, 2, 0.9), 1)
	l.Append(mkRow(s, 3, 0.5), 1)
	got := l.BeforeSorted(2)
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		return got[i].ScoreProduct() > got[j].ScoreProduct()
	}) {
		t.Error("BeforeSorted not sorted")
	}
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
	all := m.Probe(0, 0, tuple.Int(1), MaxEpochLive)
	if len(all) != 2 {
		t.Fatalf("live probe = %d rows", len(all))
	}
	old := m.Probe(0, 0, tuple.Int(1), 2)
	if len(old) != 1 || old[0].epoch != 1 {
		t.Fatalf("epoch-filtered probe = %v", old)
	}
	if got := m.Probe(0, 0, tuple.Int(9), MaxEpochLive); len(got) != 0 {
		t.Error("absent key should be empty")
	}
	// Insert after index built must stay consistent.
	m.Insert(mk(1, 0.2), 3)
	if got := m.Probe(0, 0, tuple.Int(1), MaxEpochLive); len(got) != 3 {
		t.Errorf("post-index insert missing: %d", len(got))
	}
	if got := m.Scan(2); len(got) != 2 {
		t.Errorf("Scan(2) = %d rows", len(got))
	}
	if len(m.Coverage()) != 1 || m.Coverage()[0] != 0 {
		t.Error("coverage wrong")
	}
}

func TestQuickSelectDesc(t *testing.T) {
	rng := dist.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64()*10) / 10 // duplicates likely
		}
		k := 1 + rng.Intn(n)
		cp := append([]float64(nil), xs...)
		got := quickSelectDesc(cp, k)
		sorted := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		if got != sorted[k-1] {
			t.Fatalf("quickSelect(%v, %d) = %v, want %v", xs, k, got, sorted[k-1])
		}
	}
}

func TestCandidateHeapOrdering(t *testing.T) {
	s := rowSchema()
	// Exercise the heap through a minimal entry using offer.
	entry := &CQEntry{seen: newIdentSet(0)}
	entry.offer(mkRow(s, 1, 0.5), 0.5)
	entry.offer(mkRow(s, 2, 0.9), 0.9)
	entry.offer(mkRow(s, 3, 0.7), 0.7)
	entry.offer(mkRow(s, 2, 0.9), 0.9) // duplicate
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
							for _, pr := range m.Scan(maxEpoch) {
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
