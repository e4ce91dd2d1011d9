package service_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/candidates"
	"repro/internal/candidates/candidatestest"
	"repro/internal/cq"
	"repro/internal/dist"
	"repro/internal/schemagraph"
	"repro/internal/service"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// describeSansID is candidatestest.Describe with the query's id masked: under concurrent
// expansion the id depends on the interleaving, nothing else may.
func describeSansID(uq *cq.UQ, err error) string {
	d := candidatestest.Describe(uq, err)
	if err == nil {
		d = strings.ReplaceAll(d, uq.ID, "UQ?")
	}
	return d
}

// plainExpander is the front desk without the expansion cache: per-user
// generators seeded and advanced the way service.Expander's are, and a full
// candidates.Generate on every arrival.
type plainExpander struct {
	cfg    candidates.Config
	seed   uint64
	users  map[string]*dist.RNG
	nextUQ int
}

func newPlainExpander(w *workload.Workload, seed uint64) *plainExpander {
	return &plainExpander{cfg: candidatestest.GenConfig(w), seed: seed, users: map[string]*dist.RNG{}}
}

func (p *plainExpander) expand(user string, keywords []string, k int) (*cq.UQ, error) {
	rng, ok := p.users[user]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(user))
		rng = dist.New(p.seed + 1000 + h.Sum64()*77)
		p.users[user] = rng
	}
	p.nextUQ++
	return candidates.Generate(p.cfg, fmt.Sprintf("UQ%d", p.nextUQ), keywords, k, rng)
}

var expandWorkloads = []struct {
	name string
	load func() (*workload.Workload, error)
}{
	{"bio", workload.Bio},
	{"gus", func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) }},
	{"pfam", func() (*workload.Workload, error) { return workload.Pfam(workload.PfamScaleDefault()) }},
}

// TestExpandCacheDifferential poses one arrival sequence to a service.Expander
// and to the cache-less front desk: three users whose coefficients evolve per
// arrival, suite searches and their variants repeated, respelled, reordered
// and with repeated keywords, searches that fail before and after drawing, a
// flood of distinct sequences that turns the LRU over mid-run, and a schema
// graph mutation that changes what the cached keywords match. Every arrival
// must come back identical field by field: ids, order, atoms, head vars,
// weights bit for bit, error text.
func TestExpandCacheDifferential(t *testing.T) {
	for _, tc := range expandWorkloads {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			const seed = 5
			cached, plain := service.NewExpander(w, service.Config{Seed: seed}), newPlainExpander(w, seed)
			arrivals := 0
			pose := func(user string, kws []string, k int) string {
				t.Helper()
				arrivals++
				got, want := candidatestest.Describe(cached.Expand(user, kws, k)), candidatestest.Describe(plain.expand(user, kws, k))
				if got != want {
					t.Fatalf("arrival %d, %s poses %q:\n got %s\nwant %s", arrivals, user, kws, got, want)
				}
				return want
			}
			pool := candidatestest.Pool(w)
			users := []string{"ada", "grace", "edsger"}
			rng := dist.New(77)
			mixed := func(n int) {
				for i := 0; i < n; i++ {
					pose(users[rng.Intn(len(users))], pool[rng.Intn(len(pool))], 5+rng.Intn(3))
				}
			}

			mixed(3 * len(pool))
			if s := cached.CacheStats(); s.Hits == 0 || s.Stale != 0 {
				t.Fatalf("before the flood: %+v", s)
			}

			// More distinct sequences than the cache holds, each cheap: one
			// term repeated, in upper case on odd counts.
			terms := w.Schema.Terms()
			for flood := 0; flood < 300; flood++ {
				term, n := terms[flood%len(terms)], 1+flood/len(terms)
				if n%2 == 1 {
					term = strings.ToUpper(term)
				}
				kws := make([]string, n)
				for i := range kws {
					kws[i] = term
				}
				pose(users[flood%len(users)], kws, 5)
			}
			if s := cached.CacheStats(); s.Entries > 256 || s.Misses-int64(s.Entries) <= 0 {
				t.Fatalf("the flood evicted nothing: %+v", s)
			}
			mixed(2 * len(pool))

			// Mutate the graph under the cached skeletons: the suite's first
			// keyword gains a best-scoring metadata match on the relation its
			// partner keyword matches, and a new relation pair arrives whose
			// only network fails validation after its two draws (the content
			// match sits on the join column, so the selection disconnects it).
			first, partner := pool[0][0], pool[0][1]
			before := pose("ada", pool[0], 5)
			w.Schema.IndexTerm(first, schemagraph.Match{Rel: w.Schema.Lookup(partner)[0].Rel, Col: -1, Score: 1, Exact: true})
			pair := func(name string) *tuple.Schema {
				return tuple.NewSchema(name,
					tuple.Column{Name: "id", Type: tuple.KindString, Key: true},
					tuple.Column{Name: "ref", Type: tuple.KindString})
			}
			w.Schema.AddNode(&schemagraph.Node{Rel: "XLeft", DB: "x", Schema: pair("XLeft")})
			w.Schema.AddNode(&schemagraph.Node{Rel: "XRight", DB: "x", Schema: pair("XRight")})
			w.Schema.AddEdge(&schemagraph.Edge{From: "XLeft", To: "XRight", FromCol: 0, ToCol: 1, Cost: 0.5})
			w.Schema.IndexTerm("xleft", schemagraph.Match{Rel: "XLeft", Col: 0, Score: 0.9})
			w.Schema.IndexTerm("xright", schemagraph.Match{Rel: "XRight", Col: 0, Score: 0.9})
			after := pose("ada", pool[0], 5)
			if atomsOf(before) == atomsOf(after) {
				t.Fatalf("the mutation did not change the networks of %q", pool[0])
			}
			if s := cached.CacheStats(); s.Stale == 0 {
				t.Fatalf("after the mutation: %+v", s)
			}
			disconnected := []string{"xleft", "xright"}
			if d := pose("grace", disconnected, 5); !strings.Contains(d, "no candidate network connects") {
				t.Fatalf("the disconnected pair expanded: %s", d)
			}
			pool = append(pool, disconnected)
			mixed(3 * len(pool))

			s := cached.CacheStats()
			if s.Hits+s.Misses != int64(arrivals) || s.Entries > 256 {
				t.Errorf("stats do not add up over %d arrivals: %+v", arrivals, s)
			}
			t.Logf("%d arrivals: %+v", arrivals, s)
		})
	}
}

// atomsOf strips a description down to its queries' bodies.
func atomsOf(desc string) string {
	var b strings.Builder
	for _, line := range strings.Split(desc, "\n") {
		if i := strings.Index(line, " of UQ"); i >= 0 {
			b.WriteString(line[strings.Index(line, ":"):i])
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestExpandConcurrent runs one goroutine per user against one expander. A
// user's coefficients are a function of the user's own arrivals, so each must
// see exactly the sequence a serial run gives it, ids aside. Run under -race:
// the cache, the per-user state and the shared query bodies are all reached
// from every goroutine.
func TestExpandConcurrent(t *testing.T) {
	w, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	pool := candidatestest.Pool(w)
	const users, searches = 4, 40
	schedule := func(u int) [][]string {
		rng := dist.New(uint64(300 + u))
		out := make([][]string, searches)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	serial := service.NewExpander(w, service.Config{Seed: 9})
	want := make([][]string, users)
	for u := 0; u < users; u++ {
		for _, kws := range schedule(u) {
			want[u] = append(want[u], describeSansID(serial.Expand(fmt.Sprintf("user%d", u), kws, 10)))
		}
	}

	shared := service.NewExpander(w, service.Config{Seed: 9})
	ids := make([][]string, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i, kws := range schedule(u) {
				uq, err := shared.Expand(fmt.Sprintf("user%d", u), kws, 10)
				if got := describeSansID(uq, err); got != want[u][i] {
					t.Errorf("user%d search %d %q:\n got %s\nwant %s", u, i, kws, got, want[u][i])
					return
				}
				if err == nil {
					ids[u] = append(ids[u], uq.ID)
					// What a shard does with the bodies on admission.
					for _, q := range uq.CQs {
						q.BodyKey()
						q.FullExpr()
					}
				}
			}
		}(u)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, us := range ids {
		for _, id := range us {
			if seen[id] {
				t.Errorf("id %s handed out twice", id)
			}
			seen[id] = true
		}
	}
}

// TestExpandWhileShardAdmits has clients expand on their own goroutines and
// canonicalize the bodies they were handed (as the benchmark's checks and a
// routing front end do) while the shard's goroutine admits earlier instances
// of the same bodies: one memo, two sides. Run under -race.
func TestExpandWhileShardAdmits(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{K: 5, Shards: 1}
	svc, exp := service.New(w, cfg), service.NewExpander(w, cfg)
	defer svc.Close()
	const clients, searches = 3, 12
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < searches; i++ {
				uq, err := exp.Expand(fmt.Sprintf("client%d", c), bioKeywords[i%2], 5)
				if err != nil {
					errs[c] = err
					return
				}
				for _, q := range uq.CQs {
					q.FullExpr()
					q.BodyKey()
				}
				res, err := svc.SearchUQ(context.Background(), uq)
				if err == nil && len(res.Answers) == 0 {
					err = fmt.Errorf("%s: no answers", uq.ID)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if s := exp.CacheStats(); s.Hits == 0 {
		t.Errorf("the clients shared no expansion: %+v", s)
	}
}

// A user's coefficient sequence is the user's alone: whoever else arrives in
// between, the user's next search draws the same weights.
func TestExpandUserSequenceIndependentOfOthers(t *testing.T) {
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	alone, crowded := service.NewExpander(w, service.Config{Seed: 3}), service.NewExpander(w, service.Config{Seed: 3})
	for i := 0; i < 6; i++ {
		kws := bioKeywords[i%len(bioKeywords)]
		for j := 0; j < 5*i; j++ {
			crowded.Expand(fmt.Sprintf("passer-by-%d-%d", i, j), bioKeywords[j%len(bioKeywords)], 5)
		}
		want, got := describeSansID(alone.Expand("ada", kws, 5)), describeSansID(crowded.Expand("ada", kws, 5))
		if got != want {
			t.Fatalf("ada's search %d %q depends on who else arrived:\n got %s\nwant %s", i, kws, got, want)
		}
	}
}

// perUserBytes is the bound on what the expander keeps for a user who
// searched once and never came back: the name, and one word of generator
// state in a map slot (DESIGN.md, "Expansion cache"; measured ≈ 59 B for
// names of this length).
const perUserBytes = 128

func TestExpandOneShotUsersStaySmall(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100 000 expansions")
	}
	w, err := workload.Bio()
	if err != nil {
		t.Fatal(err)
	}
	exp := service.NewExpander(w, service.Config{Seed: 3})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	kws := []string{"metabolism", "protein"}
	if _, err := exp.Expand("warm-up", kws, 5); err != nil {
		t.Fatal(err)
	}
	const users = 100_000
	before := heap()
	for i := 0; i < users; i++ {
		if _, err := exp.Expand(fmt.Sprintf("one-shot-user-%06d", i), kws, 5); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heap()) - int64(before)
	t.Logf("%d one-shot users grew the live heap by %d B, %.1f B each", users, grown, float64(grown)/users)
	if grown > users*perUserBytes {
		t.Errorf("live heap grew %d B over %d users, more than %d B each", grown, users, perUserBytes)
	}
	runtime.KeepAlive(exp)
}
