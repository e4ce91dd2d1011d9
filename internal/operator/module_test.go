package operator

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
func moduleBefore(m *AccessModule, maxEpoch int) []*tuple.Row {
	var out []*tuple.Row
	m.EachBefore(maxEpoch, func(r *tuple.Row) { out = append(out, r) })
	return out
}

func TestAccessModuleProbeAndEpochs(t *testing.T) {
	s := rowSchema()
	m := NewAccessModule([]int{0})
	mk := func(id int, score float64) *tuple.Row {
		return tuple.NewRow(tuple.New(s, tuple.Int(int64(id)), tuple.Float(score)))
	}
	first := mk(1, 0.5)
	m.Insert(first, 1)
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
	if len(old) != 1 || old[0] != first {
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
	matches := func(r *tuple.Row, atom, col int, v tuple.Value) bool {
		p := r.Part(atom)
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
			r := tuple.NewRow(parts...)
			early.Insert(r, epoch)
			late.Insert(r, epoch)
		}
		for _, m := range []*AccessModule{early, late} {
			for atom := 0; atom < 2; atom++ {
				for col := 0; col < 2; col++ {
					for _, v := range probes {
						for _, maxEpoch := range []int{0, 2, 4, MaxEpochLive} {
							var want []*tuple.Row
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
								if got[i] != want[i] {
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
	// Each identity is offered as a new row, so a match is by identity, not
	// by pointer.
	schema := rowSchema()
	row := func(id string) *tuple.Row {
		return tuple.NewRow(tuple.New(schema, tuple.Int(int64(id[0])), tuple.Float(0.5)))
	}
	for _, c := range []struct {
		h     uint64
		id    string
		added bool
	}{
		{7, "a", true}, {7, "b", true}, {7, "a", false}, {7, "c", true},
		{7, "b", false}, {7, "c", false}, {8, "a", true}, {8, "a", false},
	} {
		if got := s.add(c.h, row(c.id)); got != c.added {
			t.Fatalf("add(%d, %q) = %v, want %v", c.h, c.id, got, c.added)
		}
		if !s.has(c.h, row(c.id)) {
			t.Fatalf("has(%d, %q) after add = false", c.h, c.id)
		}
	}
	if s.has(7, row("d")) || s.has(9, row("a")) {
		t.Fatal("has reports an identity never added")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

// inverseFibonacci is fibonacci's inverse mod 2^64: the int keys
// base + j·inverseFibonacci hash to base·fibonacci + j, which share their
// top bits, so they collide at every table size.
func inverseFibonacci() uint64 {
	var f uint64 = fibonacci
	inv := f // correct to 3 bits; each Newton step doubles that
	for range 5 {
		inv *= 2 - f*inv
	}
	return inv
}

// checkChainTable checks a chain index's table against its definition: a
// power of two in size, at most half full, each chain in exactly one slot,
// signed by its kind, and reached from its key's home slot by a linear probe
// that passes no empty slot.
func checkChainTable(t *testing.T, m *AccessModule, ix *chainIndex, when string) {
	t.Helper()
	n := len(ix.slots)
	if n < minSlots || n&(n-1) != 0 || 1<<(64-ix.shift) != n {
		t.Fatalf("%s: %d slots with shift %d", when, n, ix.shift)
	}
	if 2*ix.chains.n > n {
		t.Fatalf("%s: %d chains in %d slots, more than half full", when, ix.chains.n, n)
	}
	seen := make([]bool, ix.chains.n)
	for i, s := range ix.slots {
		if s == 0 {
			continue
		}
		c := ix.chains.at(chainOf(s))
		if seen[chainOf(s)] {
			t.Fatalf("%s: chain %d in two slots", when, chainOf(s))
		}
		seen[chainOf(s)] = true
		v := m.rows.at(int(c.first)).Part(ix.part).Val(ix.col)
		if (s > 0) != (v.Kind() == tuple.KindInt) {
			t.Fatalf("%s: slot %d is %d for a %s chain", when, i, s, v.Kind())
		}
		for j := ix.home(c.key); j != i; j = (j + 1) % n {
			if ix.slots[j] == 0 {
				t.Fatalf("%s: chain %d at slot %d, but its probe from slot %d meets empty slot %d", when, chainOf(s), i, ix.home(c.key), j)
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("%s: chain %d in no slot", when, c)
		}
	}
}

// checkChainsMatch compares every chain of the module's index on (0, 0)
// with the reference's row positions for its key, and probes a few absent
// values.
func checkChainsMatch(t *testing.T, m *AccessModule, ref map[tuple.IndexKey][]int32, vals map[tuple.IndexKey]tuple.Value, absent []tuple.Value, when string) {
	t.Helper()
	ix := m.index(0, 0)
	checkChainTable(t, m, ix, when)
	if ix.chains.n != len(ref) {
		t.Fatalf("%s: %d chains, want %d", when, ix.chains.n, len(ref))
	}
	for k, want := range ref {
		v := vals[k]
		pos, ok := ix.first(v, &m.rows)
		var got []int32
		for ; ok && pos >= 0; pos = int(ix.next.at(pos)) {
			got = append(got, int32(pos))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: chain of %s %s = %v, want %v", when, v.Kind(), v.Text(), got, want)
		}
	}
	for _, v := range absent {
		if _, ok := ref[v.IndexKey()]; ok {
			continue
		}
		if pos, ok := ix.first(v, &m.rows); ok {
			t.Fatalf("%s: absent %s %s found at row %d", when, v.Kind(), v.Text(), pos)
		}
	}
}

// TestChainIndexMatchesMap drives chain indexes beside a map from each key
// to its rows' positions, through seeded sequences of inserts: distinct-key
// counts on both sides of every resize (0, 1, 7, 8, 9, 2^k ± 1), int keys
// at the ends of their range and keys that collide at every table size on
// the table's last slot, so their probes wrap around, and values of every
// kind that compare equal across kinds or share a key word (null and +0.0
// share word 0). Each sequence runs with the index built before the rows
// arrive and built lazily after, and every chain, absent probe and table
// invariant is checked against the reference.
func TestChainIndexMatchesMap(t *testing.T) {
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	inv := inverseFibonacci()
	last := -(64 * inv) // last·fibonacci = -64: every top bit set
	var colliding []tuple.Value
	for j := range uint64(40) {
		colliding = append(colliding, tuple.Int(int64(last+j*inv)))
	}
	for size := minSlots; size <= 1<<16; size <<= 1 {
		ix := newChainIndex(0, 0, 0, size/2)
		for _, v := range colliding {
			if h := ix.home(uint64(v.AsInt())); h != size-1 {
				t.Fatalf("key %d: home %d of %d slots, want the last", v.AsInt(), h, size)
			}
		}
	}
	nan := math.NaN()
	others := []tuple.Value{
		tuple.Int(1), tuple.Float(1), tuple.String("1"), tuple.Null(),
		tuple.Int(0), tuple.Float(0), tuple.Float(math.Copysign(0, -1)), tuple.String(""),
		tuple.Float(nan), tuple.Float(math.Float64frombits(math.Float64bits(nan) | 1)),
		tuple.Int(-1), tuple.Int(math.MinInt64), tuple.Int(math.MaxInt64), tuple.Float(-1),
		tuple.String("0"), tuple.String("x"),
	}
	type sequence struct {
		name string
		keys []tuple.Value
	}
	var seqs []sequence
	for _, d := range []int{0, 1, 7, 8, 9, 15, 17, 31, 33, 63, 65, 127, 129, 255, 257, 1023, 1025, 2047, 2049} {
		keys := make([]tuple.Value, d)
		for i := range keys {
			keys[i] = tuple.Int(int64(i*7919 - 5000))
		}
		seqs = append(seqs, sequence{fmt.Sprintf("%d ints", d), keys})
	}
	seqs = append(seqs,
		sequence{"int extremes", []tuple.Value{tuple.Int(0), tuple.Int(-1), tuple.Int(math.MinInt64), tuple.Int(math.MaxInt64), tuple.Int(1)}},
		sequence{"colliding ints", colliding},
		sequence{"mixed kinds", others},
		sequence{"mixed kinds and colliding ints", append(append([]tuple.Value(nil), others...), colliding...)},
	)
	absent := append([]tuple.Value{tuple.Int(12345), tuple.Int(int64(last + 40*inv)), tuple.String("absent"), tuple.Float(2)}, others...)
	absent = append(absent, colliding...)
	for si, seq := range seqs {
		rng := dist.New(uint64(si) + 1)
		rows := 3 * len(seq.keys)
		if len(seq.keys) == 0 {
			rows = 5
		}
		order := make([]*tuple.Tuple, rows) // nil: a row with no part at atom 0
		for i := range order {
			switch {
			case len(seq.keys) == 0 || rng.Intn(10) == 0:
			case i < len(seq.keys):
				order[i] = tuple.New(s, seq.keys[i], tuple.Float(0.5)) // every key once, in order
			default:
				order[i] = tuple.New(s, seq.keys[rng.Intn(len(seq.keys))], tuple.Float(0.5))
			}
		}
		for _, lazy := range []bool{false, true} {
			when := fmt.Sprintf("%s, lazy %v", seq.name, lazy)
			m := NewAccessModule([]int{0})
			if !lazy {
				m.index(0, 0)
			}
			ref := map[tuple.IndexKey][]int32{}
			vals := map[tuple.IndexKey]tuple.Value{}
			for pos, tup := range order {
				m.Insert(tuple.NewRow(tup), 1)
				if tup != nil {
					k := tup.Val(0).IndexKey()
					ref[k] = append(ref[k], int32(pos))
					vals[k] = tup.Val(0)
				}
				if !lazy {
					if ix := m.indexes[0]; 2*ix.chains.n > len(ix.slots) {
						t.Fatalf("%s: %d chains in %d slots after row %d", when, ix.chains.n, len(ix.slots), pos)
					}
					if pos < 64 || rng.Intn(64) == 0 {
						checkChainsMatch(t, m, ref, vals, absent, fmt.Sprintf("%s, row %d", when, pos))
					}
				}
			}
			if lazy {
				ix := m.index(0, 0)
				if want := max(minSlots, 1<<bits.Len(uint(2*rows-1))); len(ix.slots) != want {
					t.Fatalf("%s: built over %d rows with %d slots, want %d", when, rows, len(ix.slots), want)
				}
			}
			checkChainsMatch(t, m, ref, vals, absent, when)
		}
	}
}
