package operator

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/scoring"
	"repro/internal/simclock"
	"repro/internal/state"
	"repro/internal/tuple"
)

// cursorModels are the three scoring families over a three-atom CQ, with
// weights that make a CQ's rounding differ from the node-order product's.
func cursorModels() []*scoring.Model {
	return []*scoring.Model{
		scoring.Discover(3),
		scoring.QSystem(0.7, []float64{0.9, 0.6, 0.35}),
		scoring.BANKS(0.6, []float64{1, 0.5, 0.8}, 0.3),
	}
}

// cursorAtomMap sends node atom i to CQ atom cursorAtomMap[i], so CQs score
// rows in another order than the node multiplies them.
var cursorAtomMap = []int{2, 0, 1}

// cursorLog appends n random three-atom rows, with distinct identities, to l:
// repeated products, products a few ulps apart, zero scores and epochs out of
// order. next numbers the rows across calls.
func cursorLog(rng *dist.RNG, l *Log, n int, next *int, maxEpoch int) {
	s := rowSchema()
	part := func(atom int, score float64) *tuple.Tuple {
		return tuple.New(s, tuple.Int(int64(atom*1_000_000+*next)), tuple.Float(score))
	}
	templates := [][3]float64{{0.5, 0.5, 0.5}, {0.25, 1, 0.5}, {1, 0.125, 1}}
	for i := 0; i < n; i++ {
		var sc [3]float64
		switch rng.Intn(5) {
		case 0: // a repeated product
			sc = templates[rng.Intn(len(templates))]
		case 1: // a product a few ulps from 0.05
			a, b := 0.4+0.6*rng.Float64(), 0.4+0.6*rng.Float64()
			c := 0.05 / (a * b)
			for k := rng.Intn(5) - 2; k != 0; k -= sign(k) {
				c = math.Nextafter(c, c+float64(sign(k)))
			}
			sc = [3]float64{a, b, c}
		case 2: // a zero score
			sc = [3]float64{rng.Float64(), 0, rng.Float64()}
		default:
			sc = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		l.Append(tuple.NewRow(part(0, sc[0]), part(1, sc[1]), part(2, sc[2])), rng.Intn(maxEpoch))
		*next++
	}
}

func sign(k int) int {
	if k < 0 {
		return -1
	}
	return 1
}

func cursorEnv() *Env {
	return &Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(1)), Metrics: &metrics.Counters{}}
}

// cursorSink builds an endpoint for a three-atom CQ under m, with a ledger.
func cursorSink(m *scoring.Model) (*EndpointSink, *state.Account) {
	q := &cq.CQ{ID: "CQ1", Atoms: []*cq.Atom{
		{Rel: "R", Args: []cq.Term{cq.V(0), cq.V(1)}},
		{Rel: "R", Args: []cq.Term{cq.V(2), cq.V(3)}},
		{Rel: "R", Args: []cq.Term{cq.V(4), cq.V(5)}},
	}, Model: m}
	entry := NewCQEntry(q, m.MaxScore([]float64{1, 1, 1}), []float64{1, 1, 1})
	acct := state.NewLedger().NewAccount()
	entry.SetAccount(acct)
	return NewEndpointSink(entry, cursorAtomMap), acct
}

// checkBoundWalk pulls a lazily seeded entry's cursor dry, checking at every
// position that no unpulled row scores above the bound.
func checkBoundWalk(t *testing.T, what string, env *Env, sink *EndpointSink) {
	t.Helper()
	e := sink.Entry
	for c := e.cur; c != nil && c.left > 0; {
		bound := c.headBound()
		for j, left := c.next, c.left; left > 0; j++ {
			pos := c.ix.order[j]
			if !c.before(pos) {
				continue
			}
			left--
			if s := sink.score(c.rows.at(int(pos))); s > bound {
				t.Fatalf("%s: row at index %d scores %v above the bound %v at position %d", what, j, s, bound, c.next)
			}
		}
		c.pull(env)
	}
}

// emissions drains an entry's candidates in emission order.
func emissions(env *Env, e *CQEntry) []string {
	var out []string
	for e.settle(env); len(e.buffer) > 0; e.settle(env) {
		c := heap.Pop(&e.buffer).(candidate)
		out = append(out, fmt.Sprintf("%v %s", c.score, c.id))
	}
	return out
}

// TestSeedCursorBoundIsFloatSafe pins the seed cursor's bound and order for
// the DISCOVER, Q System and BANKS models on random logs of repeated
// products, products a few ulps apart, zero scores and out-of-order epochs:
// at every cursor position every unpulled row's score is at most the bound,
// and the lazy entry emits the (score, identity) sequence eager seeding
// emits, with the same ledger charge. Rows appended after a seed —
// out-of-order recovery epochs included — stay invisible to its cursor, and a
// second seed, which extends the log's index by a merge, sees them.
func TestSeedCursorBoundIsFloatSafe(t *testing.T) {
	for mi, m := range cursorModels() {
		for trial := 0; trial < 150; trial++ {
			rng := dist.New(uint64(1000*mi + trial + 1))
			what := fmt.Sprintf("%s trial %d", m.Label, trial)
			var l Log
			next := 0
			cursorLog(rng, &l, rng.Intn(90), &next, 5)
			epoch := 1 + rng.Intn(5)

			walked, _ := cursorSink(m)
			lazy, lazyAcct := cursorSink(m)
			eager, eagerAcct := cursorSink(m)
			env := cursorEnv()
			walked.Seed(env, &l, epoch)
			lazy.Seed(env, &l, epoch)
			eager.SeedEager(env, &l, epoch)
			if lazyAcct.Rows() != eagerAcct.Rows() || lazy.Entry.BufferLen() != eager.Entry.BufferLen() || lazy.Entry.SeenLen() != eager.Entry.SeenLen() {
				t.Fatalf("%s: lazy ledger/buffer/seen %d/%d/%d, eager %d/%d/%d", what,
					lazyAcct.Rows(), lazy.Entry.BufferLen(), lazy.Entry.SeenLen(),
					eagerAcct.Rows(), eager.Entry.BufferLen(), eager.Entry.SeenLen())
			}

			// Appends after the seed, some in epochs before it, then a second
			// seed that merges them into the index.
			cursorLog(rng, &l, rng.Intn(40), &next, epoch+2)
			later := epoch + 1
			walked2, _ := cursorSink(m)
			lazy2, _ := cursorSink(m)
			eager2, _ := cursorSink(m)
			walked2.Seed(env, &l, later)
			lazy2.Seed(env, &l, later)
			eager2.SeedEager(env, &l, later)

			checkBoundWalk(t, what, env, walked)
			checkBoundWalk(t, what+" (second seed)", env, walked2)
			for _, pair := range [][2]*EndpointSink{{lazy, eager}, {lazy2, eager2}} {
				got, want := emissions(env, pair[0].Entry), emissions(env, pair[1].Entry)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: lazy emits\n%v\neager emits\n%v", what, got, want)
				}
			}
			if lazy.Entry.Duplicates() != 0 || lazyAcct.Rows() != eagerAcct.Rows() {
				t.Fatalf("%s: after draining, lazy dups %d ledger %d, eager ledger %d", what, lazy.Entry.Duplicates(), lazyAcct.Rows(), eagerAcct.Rows())
			}
		}
	}
}

// TestPruneCountsUnpulledRows pins prune on lazily seeded entries — some
// rows pulled, the rest still behind their cursors — to prune on the same
// entries seeded eagerly, over every scoring family, entries in every state
// and thresholds drawn from the logged rows' own scores, for every need from
// 1 to K.
func TestPruneCountsUnpulledRows(t *testing.T) {
	states := []EntryState{Pending, Active, Active, Active, Pruned, Complete}
	pruned := 0
	for mi, m := range cursorModels() {
		for trial := 0; trial < 60; trial++ {
			k := 1 + dist.New(uint64(trial)).Intn(20)
			for need := 1; need <= k; need++ {
				build := func(lazy bool) *RankMerge {
					rng := dist.New(uint64(1000*mi + trial + 1))
					env := cursorEnv()
					var entries []*CQEntry
					for i, ne := 0, 1+rng.Intn(4); i < ne; i++ {
						var l Log
						next := 0
						cursorLog(rng, &l, rng.Intn(40), &next, 4)
						sink, _ := cursorSink(m)
						if lazy {
							sink.Seed(env, &l, 3)
						} else {
							sink.SeedEager(env, &l, 3)
						}
						e := sink.Entry
						e.CQ = &cq.CQ{ID: fmt.Sprintf("CQ%d", i), Atoms: e.CQ.Atoms, Model: m}
						e.State = states[rng.Intn(len(states))]
						e.thCache = rng.Float64() * m.MaxScore([]float64{1, 1, 1})
						if rows, _ := l.Export(); len(rows) > 0 && rng.Intn(2) == 0 {
							e.thCache = sink.score(rows[rng.Intn(len(rows))])
						}
						e.thValid, e.thFrontiers = true, []float64{}
						for p := rng.Intn(6); p > 0 && lazy && e.cur != nil; p-- {
							e.cur.pull(env)
						}
						entries = append(entries, e)
					}
					return &RankMerge{K: k, Entries: entries, emitted: make([]Result, k-need)}
				}
				got, want := build(true).prune(), build(false).prune()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s trial %d, need %d of %d: lazy pruned %v, eager %v", m.Label, trial, need, k, got, want)
				}
				pruned += len(got)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no entry was ever pruned; the comparison is vacuous")
	}
}
