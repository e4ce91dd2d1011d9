package operator

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/scoring"
	"repro/internal/simclock"
	"repro/internal/state"
	"repro/internal/tuple"
)

// sortedBefore is the reference seeding order: the pre-epoch rows sorted by
// nonincreasing score product, identity ascending on ties.
func sortedBefore(l *Log, e int) []*tuple.Row {
	out := logBefore(l, e)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].ScoreProduct(), out[j].ScoreProduct()
		if si != sj {
			return si > sj
		}
		return out[i].Identity() < out[j].Identity()
	})
	return out
}

// TestSortedBeforeByProduct checks the reference order itself.
func TestSortedBeforeByProduct(t *testing.T) {
	s := rowSchema()
	var l Log
	// Appended out of score order, as join nodes log in production order.
	l.Append(mkRow(s, 1, 0.2), 1)
	l.Append(mkRow(s, 2, 0.9), 1)
	l.Append(mkRow(s, 3, 0.5), 1)
	got := sortedBefore(&l, 2)
	if len(got) != 3 || !sort.SliceIsSorted(got, func(i, j int) bool {
		return got[i].ScoreProduct() > got[j].ScoreProduct()
	}) {
		t.Error("sortedBefore not sorted")
	}
}

// popBest settles an entry's cursor and pops its best candidate, as the
// rank-merge emits it.
func popBest(env *Env, e *CQEntry) candidate {
	e.settle(env)
	return heap.Pop(&e.buffer).(candidate)
}

// TestSeedMatchesSortedOffer pins EndpointSink.Seed — a cursor over the log's
// product index, pulled only as candidates are needed — to offering the same
// rows one at a time in score order: the same emission sequence, duplicate
// count, seen-set size and ledger rows, on logs with repeated identities,
// tied scores and epochs out of order. Before anything is pulled the seen
// set counts every seeded row (pulled + unpulled); a duplicate is found, and
// its charge returned, when the cursor pulls it.
func TestSeedMatchesSortedOffer(t *testing.T) {
	s := rowSchema()
	q := &cq.CQ{ID: "CQ1", Atoms: []*cq.Atom{
		{Rel: "R", Args: []cq.Term{cq.V(0), cq.V(1)}},
		{Rel: "R", Args: []cq.Term{cq.V(2), cq.V(3)}},
	}, Model: scoring.QSystem(0, []float64{1, 0.5})}
	newEnv := func() *Env {
		return &Env{Clock: simclock.NewVirtual(0), Delays: simclock.DefaultDelays(dist.New(1)), Metrics: &metrics.Counters{}}
	}
	for trial := 0; trial < 200; trial++ {
		rng := dist.New(uint64(trial) + 1)
		var l Log
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			a, b := rng.Intn(12), rng.Intn(12) // identities repeat
			row := tuple.NewRow(
				tuple.New(s, tuple.Int(int64(a)), tuple.Float(float64(1+a%4)/4)),
				tuple.New(s, tuple.Int(int64(100+b)), tuple.Float(float64(1+b%3)/3)),
			)
			l.Append(row, rng.Intn(5)) // epochs out of order
		}
		epoch := 1 + rng.Intn(5)
		sink := func() (*EndpointSink, *state.Account) {
			entry := NewCQEntry(q, 1, []float64{1, 1})
			acct := state.NewLedger().NewAccount()
			entry.SetAccount(acct)
			return NewEndpointSink(entry, []int{1, 0}), acct
		}
		seeded, seededAcct := sink()
		offered, offeredAcct := sink()
		env := newEnv()
		seeded.Seed(env, &l, epoch)
		ref := sortedBefore(&l, epoch)
		for _, r := range ref {
			offered.Offer(newEnv(), r)
		}
		what := fmt.Sprintf("trial %d (%d rows, epoch %d)", trial, n, epoch)
		if got := env.Metrics.Snapshot().SeededRows; got != int64(len(ref)) {
			t.Fatalf("%s: SeededRows %d, want %d", what, got, len(ref))
		}
		a, b := seeded.Entry, offered.Entry
		if a.SeenLen() != len(ref) || a.BufferLen() != len(ref) || seededAcct.Rows() != int64(2*len(ref)) {
			t.Fatalf("%s: seeded seen/buffer/ledger %d/%d/%d, want %d pulled + unpulled", what,
				a.SeenLen(), a.BufferLen(), seededAcct.Rows(), len(ref))
		}
		for i := 0; b.BufferLen() > 0; i++ {
			if a.BufferLen() == 0 {
				t.Fatalf("%s: seeded entry ran dry after %d emissions", what, i)
			}
			x, y := popBest(env, a), heap.Pop(&b.buffer).(candidate)
			if x.id != y.id || x.score != y.score || x.row.Identity() != y.row.Identity() {
				t.Fatalf("%s: emission %d is %s@%v, sorted offer %s@%v", what, i, x.id, x.score, y.id, y.score)
			}
		}
		a.settle(env)
		if a.BufferLen() != 0 || a.cur != nil {
			t.Fatalf("%s: %d seeded rows left after the sorted offer ran out", what, a.BufferLen())
		}
		if a.Duplicates() != b.Duplicates() || a.SeenLen() != b.SeenLen() || seededAcct.Rows() != offeredAcct.Rows() {
			t.Fatalf("%s: dups/seen/ledger %d/%d/%d, sorted offer %d/%d/%d", what,
				a.Duplicates(), a.SeenLen(), seededAcct.Rows(), b.Duplicates(), b.SeenLen(), offeredAcct.Rows())
		}
	}
}

// quickSelectDesc is the reference selection: the n'th largest value
// (1-based) of xs, which it reorders.
func quickSelectDesc(xs []float64, n int) float64 {
	lo, hi := 0, len(xs)-1
	k := n - 1
	for lo < hi {
		p := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] > p {
				i++
			}
			for xs[j] < p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// referencePrune is the ranking form of RankMerge.prune: select the need'th
// highest buffered score, then deactivate every active entry whose threshold
// is below it. It reports the ids without changing any state.
func referencePrune(t *testing.T, rm *RankMerge) []string {
	need := rm.K - len(rm.emitted)
	if need <= 0 {
		return nil
	}
	var scores []float64
	for _, e := range rm.Entries {
		for _, c := range e.buffer {
			scores = append(scores, c.score)
		}
	}
	if len(scores) < need {
		return nil
	}
	sorted := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	kth := quickSelectDesc(scores, need)
	if kth != sorted[need-1] {
		t.Fatalf("quickSelectDesc(%d) = %v, sorting gives %v", need, kth, sorted[need-1])
	}
	var ids []string
	for _, e := range rm.Entries {
		if e.State == Active && e.Threshold() < kth {
			ids = append(ids, e.CQ.ID)
		}
	}
	return ids
}

// TestPruneCountMatchesQuickSelect pins prune's count to k against the
// ranking reference on random rank-merges: entries in every state, scores and
// thresholds drawn from a few values so ties at the threshold are common,
// -Inf and +Inf thresholds, and every need from 1 to K.
func TestPruneCountMatchesQuickSelect(t *testing.T) {
	levels := []float64{0.1, 0.2, 0.3, 0.5, 0.8}
	states := []EntryState{Pending, Active, Active, Pruned, Complete}
	pruned := 0
	for trial := 0; trial < 400; trial++ {
		rng := dist.New(uint64(trial) + 1)
		k := 1 + rng.Intn(12)
		for need := 1; need <= k; need++ {
			var entries []*CQEntry
			for i, ne := 0, 1+rng.Intn(5); i < ne; i++ {
				e := &CQEntry{CQ: &cq.CQ{ID: fmt.Sprintf("CQ%d", i)}, State: states[rng.Intn(len(states))]}
				switch rng.Intn(6) {
				case 0:
					e.thCache = math.Inf(-1)
				case 1:
					e.thCache = math.Inf(1)
				default:
					e.thCache = levels[rng.Intn(len(levels))]
				}
				e.thValid, e.thFrontiers = true, []float64{} // a memoised threshold with no groups
				for j, nb := 0, rng.Intn(8); j < nb; j++ {
					heap.Push(&e.buffer, candidate{score: levels[rng.Intn(len(levels))], id: fmt.Sprintf("%d.%d", i, j)})
				}
				entries = append(entries, e)
			}
			rm := &RankMerge{K: k, Entries: entries, emitted: make([]Result, k-need)}
			want := referencePrune(t, rm)
			got := rm.prune()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d, need %d of %d: pruned %v, ranking reference %v", trial, need, k, got, want)
			}
			pruned += len(got)
		}
	}
	if pruned == 0 {
		t.Fatal("no entry was ever pruned; the comparison is vacuous")
	}
}

// TestCandidateHeapPopMatchesHeapPop pins the typed pop emission uses to
// container/heap's Pop: the same candidates in the same order, ties on score
// broken by identity, and the same heap left behind after every pop.
func TestCandidateHeapPopMatchesHeapPop(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := dist.New(uint64(trial) + 1)
		var typed, boxed candidateHeap
		for i, n := 0, rng.Intn(60); i < n; i++ {
			c := candidate{score: float64(rng.Intn(8)), id: fmt.Sprintf("r%03d", i)}
			heap.Push(&typed, c)
			heap.Push(&boxed, c)
		}
		for len(boxed) > 0 {
			got, want := typed.pop(), heap.Pop(&boxed).(candidate)
			if got != want || fmt.Sprint(typed) != fmt.Sprint(boxed) {
				t.Fatalf("trial %d: pop = %v, heap.Pop = %v", trial, got, want)
			}
		}
	}
}
