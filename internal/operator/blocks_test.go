package operator

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/plangraph"
	"repro/internal/tuple"
)

// refModule and refLog are the plain-slice reference models of an access
// module and a log: one entry per row, regrown by append, filtered by a scan.
type refModule struct {
	rows   []*tuple.Row
	epochs []int
}

type refLog struct {
	rows   []*tuple.Row
	epochs []int
}

// probe is AppendProbe's answer by a scan over every stored row, reading
// node atom atom through the model's atom map.
func (r *refModule) probe(atom, col int, v tuple.Value, maxEpoch int) []*tuple.Row {
	var out []*tuple.Row
	part := slices.Index(modelAtomMap, atom)
	for i, row := range r.rows {
		if part < 0 || r.epochs[i] >= maxEpoch {
			continue
		}
		if p := row.Part(part); p != nil && p.Val(col).IndexKey() == v.IndexKey() {
			out = append(out, row)
		}
	}
	return out
}

func (r *refModule) before(maxEpoch int) []*tuple.Row {
	var out []*tuple.Row
	for i, row := range r.rows {
		if r.epochs[i] < maxEpoch {
			out = append(out, row)
		}
	}
	return out
}

func (r *refLog) before(e int) []*tuple.Row {
	var out []*tuple.Row
	for i, row := range r.rows {
		if r.epochs[i] < e {
			out = append(out, row)
		}
	}
	return out
}

// sameParts reports whether two module answers hold rows of the same parts,
// part by part, in the same order: an imported module holds new rows over
// the parts its export held.
func sameParts(got, want []*tuple.Row) bool {
	return slices.EqualFunc(got, want, func(a, b *tuple.Row) bool { return slices.Equal(a.Parts(), b.Parts()) })
}

func sameRows(got, want []*tuple.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// blockModel drives a module and a log beside their reference models.
type blockModel struct {
	t     *testing.T
	rng   *dist.RNG
	s     *tuple.Schema
	m     *AccessModule
	l     *Log
	rm    refModule
	rl    refLog
	epoch int
	// disorder, when positive, stamps one row in disorder with the epoch
	// before the current one.
	disorder int
	keys     []tuple.Value
	// views are seed views taken earlier, with what they must still show.
	views []heldView
}

type heldView struct {
	v      seedView
	rows   []*tuple.Row
	before []bool
}

// moduleWidth is the node arity the model's module exports; its input
// covers atoms 0 and 2 (atom 1 is always nil).
const moduleWidth = 3

var modelAtomMap = []int{0, 2}

func newBlockModel(t *testing.T, seed uint64) *blockModel {
	s := tuple.NewSchema("R",
		tuple.Column{Name: "k", Type: tuple.KindInt},
		tuple.Column{Name: "score", Type: tuple.KindFloat, Score: true},
	)
	keys := []tuple.Value{tuple.String("a"), tuple.String("b")}
	for k := 0; k < 24; k++ {
		keys = append(keys, tuple.Int(int64(k)))
	}
	return &blockModel{t: t, rng: dist.New(seed), s: s, m: NewAccessModule(modelAtomMap), l: &Log{}, epoch: 1, keys: keys}
}

// insert adds one producer row to the module and the log, stamped with the
// current epoch — or, now and then, the one before it, as recovery stamps
// what it re-derives.
func (b *blockModel) insert() {
	epoch := b.epoch
	if b.disorder > 0 && b.rng.Intn(b.disorder) == 0 {
		epoch--
	}
	var parts [2]*tuple.Tuple
	for i := range parts {
		if b.rng.Intn(8) > 0 {
			parts[i] = tuple.New(b.s, b.keys[b.rng.Intn(len(b.keys))], tuple.Float(b.rng.Float64()))
		} else {
			parts[i] = tuple.New(b.s, tuple.Null(), tuple.Float(b.rng.Float64()))
		}
	}
	row := tuple.NewRow(parts[0], parts[1])
	b.m.Insert(row, epoch)
	b.rm.rows = append(b.rm.rows, row)
	b.rm.epochs = append(b.rm.epochs, epoch)
	b.l.Append(row, epoch)
	b.rl.rows = append(b.rl.rows, row)
	b.rl.epochs = append(b.rl.epochs, epoch)
}

// roundTrip replaces the module and the log by what Export → Import
// rebuilds from them.
func (b *blockModel) roundTrip() {
	x := &NodeExec{Log: &Log{}, modules: []*AccessModule{NewAccessModule(modelAtomMap)}}
	parts, epochs := b.m.Export(moduleWidth)
	x.ImportModuleRows(0, parts, epochs)
	x.ImportLog(b.l.Export())
	b.m, b.l = x.modules[0], x.Log
}

// check compares every answer the module and the log give with the
// reference's.
func (b *blockModel) check(when string) {
	t := b.t
	t.Helper()
	if b.m.Len() != len(b.rm.rows) || b.l.Len() != len(b.rl.rows) {
		t.Fatalf("%s: module %d rows (want %d), log %d (want %d)", when, b.m.Len(), len(b.rm.rows), b.l.Len(), len(b.rl.rows))
	}
	epochs := []int{0, b.epoch - 1, b.epoch, b.epoch + 1, MaxEpochLive}
	if len(b.m.indexes) > 0 { // probing builds the index; keep it lazy until the model builds it
		probes := []tuple.Value{tuple.Int(99)}
		for i := 0; i < 6; i++ {
			probes = append(probes, b.keys[b.rng.Intn(len(b.keys))])
		}
		for _, atom := range []int{0, 1, 2} {
			for _, v := range probes {
				for _, e := range epochs {
					if got, want := b.m.AppendProbe(nil, atom, 0, v, e), b.rm.probe(atom, 0, v, e); !sameParts(got, want) {
						t.Fatalf("%s: AppendProbe(%d, %s, below %d) differs from the reference (%d rows, reference %d)", when, atom, v.Text(), e, len(got), len(want))
					}
				}
			}
		}
	}
	for _, e := range epochs {
		if got, want := moduleBefore(b.m, e), b.rm.before(e); !sameParts(got, want) {
			t.Fatalf("%s: module EachBefore(%d) differs from the reference (%d rows, reference %d)", when, e, len(got), len(want))
		}
		want := b.rl.before(e)
		var got []*tuple.Row
		b.l.EachBefore(e, func(r *tuple.Row) { got = append(got, r) })
		if !sameRows(got, want) || b.l.countBefore(e) != len(want) {
			t.Fatalf("%s: log EachBefore(%d) differs from the reference (%d rows, countBefore %d, reference %d)", when, e, len(got), b.l.countBefore(e), len(want))
		}
	}
	parts, mEpochs := b.m.Export(moduleWidth)
	for i, row := range b.rm.rows {
		if want := []*tuple.Tuple{row.Part(0), nil, row.Part(1)}; !slices.Equal(parts[i], want) {
			t.Fatalf("%s: module Export row %d differs from the reference", when, i)
		}
	}
	if len(parts) != len(b.rm.rows) || !slices.Equal(mEpochs, b.rm.epochs) {
		t.Fatalf("%s: module Export differs from the reference", when)
	}
	rows, lEpochs := b.l.Export()
	if !sameRows(rows, b.rl.rows) || fmt.Sprint(lEpochs) != fmt.Sprint(b.rl.epochs) {
		t.Fatalf("%s: log Export differs from the reference", when)
	}
	for _, h := range b.views {
		for pos, r := range h.rows {
			if h.v.rows.at(pos) != r || h.v.before(int32(pos)) != h.before[pos] {
				t.Fatalf("%s: a seed view taken at %d rows changed at row %d", when, len(h.rows), pos)
			}
		}
	}
}

// seed takes a seed view at the current epoch, checks it against the
// reference, and holds it so later checks see it unchanged.
func (b *blockModel) seed() {
	e := b.epoch
	v := b.l.seedView(e)
	want := b.rl.before(e)
	if v.n != len(want) || v.rows.n != len(b.rl.rows) {
		b.t.Fatalf("seedView(%d) holds %d of %d rows before the epoch, reference %d of %d", e, v.n, v.rows.n, len(want), len(b.rl.rows))
	}
	h := heldView{v: v, rows: append([]*tuple.Row(nil), b.rl.rows...)}
	for pos := range b.rl.rows {
		h.before = append(h.before, b.rl.epochs[pos] < e)
	}
	if v.ix != nil && len(v.ix.order) != len(b.rl.rows) {
		b.t.Fatalf("seedView(%d) index covers %d rows, want %d", e, len(v.ix.order), len(b.rl.rows))
	}
	b.views = append(b.views, h)
}

// TestBlockStateMatchesReference drives an access module and a node log
// beside plain-slice reference models through one seeded random sequence of
// operations — inserts whose totals cross 0, B−1, B, B+1 and 16·B rows, a
// chain index built part-way, epochs out of order, a Reset of the log and an
// Export → Import round trip — and checks every AppendProbe, EachBefore,
// countBefore, seedView and Export answer against the reference.
func TestBlockStateMatchesReference(t *testing.T) {
	targets := []int{0, blockRows - 1, blockRows, blockRows + 1, 2*blockRows + 3, 16 * blockRows, 16*blockRows + 1}
	// Epochs stay sorted at seed 1, fall out of order once in a while at
	// seed 2 and often at seed 3.
	for i, disorder := range []int{0, 2000, 50} {
		seed := i + 1
		b := newBlockModel(t, uint64(seed))
		b.disorder = disorder
		indexAt := b.rng.Intn(16 * blockRows)
		resetAt := b.rng.Intn(16 * blockRows)
		tripAt := b.rng.Intn(8 * blockRows)
		for _, target := range targets {
			for b.m.Len() < target {
				step := min(target-b.m.Len(), 1+b.rng.Intn(blockRows/2))
				for i := 0; i < step; i++ {
					b.insert()
				}
				n := b.m.Len()
				switch {
				case indexAt >= 0 && n >= indexAt:
					b.m.AppendProbe(nil, 0, 0, tuple.Int(0), MaxEpochLive) // builds the index lazily
					indexAt = -1
				case resetAt >= 0 && n >= resetAt:
					b.l.Reset()
					b.rl = refLog{}
					resetAt = -1
				case tripAt >= 0 && n >= tripAt:
					b.roundTrip()
					tripAt = -1
					if indexAt < 0 { // an import carries no index: build it again later
						indexAt = n + 1 + b.rng.Intn(blockRows)
					}
				}
				if b.rng.Intn(3) == 0 {
					b.epoch++
				}
				if b.rng.Intn(4) == 0 {
					b.seed()
				}
				b.check(fmt.Sprintf("seed %d at %d rows", seed, n))
			}
			b.check(fmt.Sprintf("seed %d at target %d", seed, target))
		}
		if b.m.Len() != 16*blockRows+1 || len(b.m.indexes) == 0 {
			t.Fatalf("seed %d: ended at %d rows with %d indexes", seed, b.m.Len(), len(b.m.indexes))
		}
	}
}

// TestModuleGrowthAllocs bounds what growing join state allocates: 20 000
// rows inserted into a module with no index built, or appended to a log,
// cost about one allocation per block of B rows — the first block's
// doubling, the block directory and the structure itself fit in 16 more —
// and about the bytes the rows occupy, where regrowing one slice row by row
// allocates and copies several times that. With an index built first and
// every row a new key, the index's row links and chains cost the same per
// block and their bytes plus a quarter, and its table, which doubles, at
// most twice its final size. (A Go map from key to chain id allocated a
// third more than this bound, in 506 allocations.) A module holds its
// producer's rows by reference, so preloading a 1-atom input of a 4-atom
// node costs what a 1-atom node's module does. (Node-space copies cost 4
// times the bound.)
func TestModuleGrowthAllocs(t *testing.T) {
	const n = 20000
	perBlock := float64(n/blockRows + 16)
	s := rowSchema()
	rows := make([]*tuple.Row, n)
	producer := &Log{}
	for i := range rows {
		rows[i] = tuple.NewRow(tuple.New(s, tuple.Int(int64(i%512)), tuple.Float(0.5)))
		producer.Append(rows[i], 1)
	}
	keyed := make([]*tuple.Row, n)
	for i := range keyed {
		keyed[i] = tuple.NewRow(tuple.New(s, tuple.Int(int64(i)), tuple.Float(0.5)))
	}
	wide := wideJoin(t)
	var indexed *AccessModule
	for _, c := range []struct {
		what   string
		allocs float64
		bytes  func() uint64
		grow   func()
	}{
		{"module inserts", perBlock, func() uint64 { return n * 8 * 5 / 4 }, func() {
			m := NewAccessModule([]int{0})
			for _, r := range rows {
				m.Insert(r, 1)
			}
		}},
		{"preloads of a 1-atom input into a 4-atom node", perBlock, func() uint64 { return n * 8 * 5 / 4 }, func() {
			wide.modules[0] = NewAccessModule(wide.Node.Inputs[0].AtomMap)
			wide.PreloadModule(0, producer, 0)
		}},
		{"log appends", perBlock, func() uint64 { return n * 8 * 5 / 4 }, func() {
			l := &Log{}
			for _, r := range rows {
				l.Append(r, 1)
			}
		}},
		// Parts, links and chains in blocks, plus one allocation per table
		// size.
		{"indexed module inserts", 3*perBlock + 16, func() uint64 {
			slots := uint64(len(indexed.indexes[0].slots))
			return n*(8+4+16)*5/4 + 2*4*slots
		}, func() {
			indexed = NewAccessModule([]int{0})
			indexed.index(0, 0)
			for _, r := range keyed {
				indexed.Insert(r, 1)
			}
		}},
	} {
		if a := testing.AllocsPerRun(5, c.grow); a > c.allocs {
			t.Errorf("%d %s: %.0f allocations, want at most %.0f", n, c.what, a, c.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.grow()
		runtime.ReadMemStats(&after)
		if b, limit := after.TotalAlloc-before.TotalAlloc, c.bytes(); b > limit {
			t.Errorf("%d %s: %d bytes allocated, want at most %d", n, c.what, b, limit)
		}
	}
}

// wideJoin returns the exec of a 4-atom join R(a,b) ⋈ R(b,c) ⋈ R(c,d) ⋈
// R(d,e) whose input 0 is the 1-atom stream over the third atom.
func wideJoin(t *testing.T) *NodeExec {
	t.Helper()
	q := &cq.CQ{ID: "CQ-wide", Atoms: []*cq.Atom{
		{Rel: "R", DB: "db", Args: []cq.Term{cq.V(0), cq.V(1)}},
		{Rel: "R", DB: "db", Args: []cq.Term{cq.V(1), cq.V(2)}},
		{Rel: "R", DB: "db", Args: []cq.Term{cq.V(2), cq.V(3)}},
		{Rel: "R", DB: "db", Args: []cq.Term{cq.V(3), cq.V(4)}},
	}}
	full, mapping := q.SubExpr([]int{0, 1, 2, 3})
	nodePos := make([]int, len(mapping))
	for ni, qi := range mapping {
		nodePos[qi] = ni
	}
	g := plangraph.New("")
	join := g.EnsureNode(plangraph.Join, full, "db")
	for _, atoms := range [][]int{{2}, {0, 1, 3}} {
		expr, m := q.SubExpr(atoms)
		atomMap := make([]int, len(m))
		for fi, qi := range m {
			atomMap[fi] = nodePos[qi]
		}
		g.Connect(g.EnsureNode(plangraph.SourceStream, expr, "db"), join, atomMap, false)
	}
	if len(join.Expr.Atoms) != 4 || len(join.Inputs[0].AtomMap) != 1 {
		t.Fatalf("wide join has %d atoms, input 0 covers %d", len(join.Expr.Atoms), len(join.Inputs[0].AtomMap))
	}
	return NewNodeExec(join)
}
