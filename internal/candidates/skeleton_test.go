package candidates_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/candidates/candidatestest"
	"repro/internal/dist"
	"repro/internal/schemagraph"
	"repro/internal/tuple"
	"repro/internal/workload"
)

type fixture struct {
	w   *workload.Workload
	cfg candidates.Config
}

// fixtures loads the three bundled workloads with the generation config
// their own suites were built with.
func fixtures(t *testing.T) []fixture {
	t.Helper()
	var out []fixture
	for _, load := range []func() (*workload.Workload, error){
		workload.Bio,
		func() (*workload.Workload, error) { return workload.GUS(1, workload.GUSScaleDefault()) },
		func() (*workload.Workload, error) { return workload.Pfam(workload.PfamScaleDefault()) },
	} {
		w, err := load()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixture{w, candidatestest.GenConfig(w)})
	}
	return out
}

// Generate is skeleton-then-instantiate; the generator it replaced drew each
// tree's coefficients while converting the tree. One generator per side is
// carried through the whole run, so a single coefficient drawn too many or too
// few — for a tree dropped as a duplicate, or by Validate, or in a set nothing
// connects — shows in every later arrival.
func TestGenerateMatchesReference(t *testing.T) {
	for _, f := range fixtures(t) {
		pool := candidatestest.Pool(f.w)
		droppedButDrawn, unconnected := 0, 0
		for _, fam := range []candidates.Family{candidates.FamilyQSystem, candidates.FamilyDiscover, candidates.FamilyBANKS} {
			cfg := f.cfg
			cfg.Family = fam
			got, want := dist.New(99), dist.New(99)
			for round := 0; round < 2; round++ {
				for i, kws := range pool {
					id := fmt.Sprintf("UQ%d", round*len(pool)+i)
					g := candidatestest.Describe(candidates.Generate(cfg, id, kws, 10+i, got))
					w := candidatestest.Describe(candidates.ReferenceGenerate(cfg, id, kws, 10+i, want))
					if g != w {
						t.Fatalf("%s family %d arrival %s %q:\n got %s\nwant %s", f.w.Name, fam, id, kws, g, w)
					}
					if strings.Contains(w, "no candidate network connects") {
						unconnected++
					}
					if nets, kept, _ := candidates.NewSkeleton(cfg, kws).Counts(); kept < nets && kept > 0 {
						droppedButDrawn++
					}
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Errorf("%s family %d: the generators ended in different states", f.w.Name, fam)
			}
		}
		t.Logf("%s: %d arrivals, %d with a dropped tree, %d unconnected", f.w.Name, 3*2*len(pool), droppedButDrawn, unconnected)
		if droppedButDrawn == 0 {
			t.Errorf("%s: no arrival had a tree dropped after its draws; the run does not cover the case", f.w.Name)
		}
	}
}

// The cache key is the lower-cased keyword sequence and the defaulted
// config; an entry is served only at the graph generation it was derived at;
// the least recently used entry goes first past the cap.
func TestCacheKeyRevalidationEviction(t *testing.T) {
	f := fixtures(t)[0] // bio
	c := candidates.NewCache()
	stats := func() candidates.CacheStats { return c.Stats() }

	ab := c.Skeleton(f.cfg, []string{"protein", "metabolism"})
	if s := stats(); s != (candidates.CacheStats{Misses: 1, Entries: 1}) {
		t.Fatalf("after first lookup: %+v", s)
	}
	if c.Skeleton(f.cfg, []string{"Protein", "METABOLISM"}) != ab {
		t.Error("a respelling of the sequence missed")
	}
	if c.Skeleton(f.cfg, []string{"metabolism", "protein"}) == ab {
		t.Error("the reversed sequence was served the skeleton of the original")
	}
	if c.Skeleton(f.cfg, []string{"protein", "metabolism", "protein"}) == ab {
		t.Error("a sequence with a repeated keyword was served the skeleton of the original")
	}
	capped := f.cfg
	capped.MaxCQs = 2
	if c.Skeleton(capped, []string{"protein", "metabolism"}) == ab {
		t.Error("another config was served this config's skeleton")
	}
	// A zero field and its default are one config.
	defaulted := f.cfg.Defaults()
	if c.Skeleton(defaulted, []string{"protein", "metabolism"}) != ab {
		t.Error("the defaulted config missed")
	}
	if s := stats(); s != (candidates.CacheStats{Hits: 2, Misses: 4, Entries: 4}) {
		t.Fatalf("after key checks: %+v", s)
	}

	f.w.Schema.IndexTerm("protein", schemagraph.Match{Rel: "T", Col: -1, Score: 1, Exact: true})
	fresh := c.Skeleton(f.cfg, []string{"protein", "metabolism"})
	if fresh == ab {
		t.Error("a skeleton outlived a mutation of the graph it was derived from")
	}
	if s := stats(); s != (candidates.CacheStats{Hits: 2, Misses: 5, Stale: 1, Entries: 4}) {
		t.Fatalf("after mutation: %+v", s)
	}
	if c.Skeleton(f.cfg, []string{"protein", "metabolism"}) != fresh {
		t.Error("the re-derived skeleton was not kept")
	}

	// Flood with distinct cheap sequences: the cache stays at its cap and the
	// oldest entry is gone, the most recently used one still there.
	for i := 1; i <= candidates.CacheCap; i++ {
		c.Skeleton(f.cfg, []string{fmt.Sprintf("nothing-%d", i)})
		if i == candidates.CacheCap/2 {
			c.Skeleton(f.cfg, []string{"protein", "metabolism"})
		}
	}
	if s := stats(); s.Entries != candidates.CacheCap {
		t.Fatalf("entries = %d, want the cap %d", s.Entries, candidates.CacheCap)
	}
	before := stats()
	if c.Skeleton(f.cfg, []string{"protein", "metabolism"}) != fresh {
		t.Error("the recently used entry was evicted")
	}
	c.Skeleton(f.cfg, []string{"metabolism", "protein"})
	if s := stats(); s.Hits != before.Hits+1 || s.Misses != before.Misses+1 || s.Stale != before.Stale {
		t.Errorf("after flood: %+v, before %+v", s, before)
	}
}

// A set whose only join tree fails validation fails after the tree's
// coefficients are drawn: the content match sits on the join column, so the
// selection constant replaces the variable that connected the two atoms. The
// user's next search must find the generator two draws further on.
func TestDisconnectedNetworkStillDraws(t *testing.T) {
	g := schemagraph.New()
	for _, rel := range []string{"L", "R"} {
		g.AddNode(&schemagraph.Node{Rel: rel, DB: "d", Schema: tuple.NewSchema(rel,
			tuple.Column{Name: "id", Type: tuple.KindString, Key: true},
			tuple.Column{Name: "ref", Type: tuple.KindString})})
	}
	g.AddEdge(&schemagraph.Edge{From: "L", To: "R", FromCol: 0, ToCol: 1, Cost: 0.5})
	g.IndexTerm("left", schemagraph.Match{Rel: "L", Col: 0, Score: 0.9})
	g.IndexTerm("right", schemagraph.Match{Rel: "R", Col: 0, Score: 0.9})
	cfg := candidates.Config{Graph: g}
	kws := []string{"left", "right"}

	if nets, kept, draws := candidates.NewSkeleton(cfg, kws).Counts(); nets != 1 || kept != 0 || draws != 2 {
		t.Fatalf("skeleton has %d trees, %d kept, %d draws; want 1, 0, 2", nets, kept, draws)
	}
	got, want, twoOn := dist.New(8), dist.New(8), dist.New(8)
	g1, w1 := candidatestest.Describe(candidates.Generate(cfg, "UQ1", kws, 5, got)), candidatestest.Describe(candidates.ReferenceGenerate(cfg, "UQ1", kws, 5, want))
	if g1 != w1 || !strings.Contains(g1, "no candidate network connects [left right]") {
		t.Fatalf("got %q, want %q", g1, w1)
	}
	twoOn.Float64()
	twoOn.Float64()
	if next := got.Uint64(); next != want.Uint64() || next != twoOn.Uint64() {
		t.Error("the failed search did not leave the generator two draws on")
	}
}
