package service

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func newTestPlacer(t *testing.T, mode string, shards int, svc *metrics.Service) *Placer {
	t.Helper()
	p, err := NewPlacer(mode, shards, svc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCanonicalKeywords(t *testing.T) {
	cases := []struct {
		in, want []string
	}{
		{[]string{"Apple", "apple"}, []string{"apple"}},
		{[]string{"apple", ""}, []string{"apple"}},
		{[]string{"apple"}, []string{"apple"}},
		{[]string{"  gene ", "Protein", "protein", "\t"}, []string{"gene", "protein"}},
		{[]string{"b", "a"}, []string{"a", "b"}},
		{[]string{"", "  "}, []string{}},
	}
	for _, c := range cases {
		if got := CanonicalKeywords(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("CanonicalKeywords(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRouteCanonicalVariantsSameShard pins the routing-contract bugfix:
// surface variants of one search — case, whitespace, duplicates, empty
// tokens — must land on the same shard in BOTH router modes, or overlapping
// queries silently re-pay full remote source reads on separate plan graphs.
func TestRouteCanonicalVariantsSameShard(t *testing.T) {
	variants := [][]string{
		{"Apple", "apple"},
		{"apple", ""},
		{"apple"},
		{" APPLE\t"},
		{"apple", "apple", "apple"},
	}
	for _, mode := range []string{RouterHash, RouterAffinity} {
		p := newTestPlacer(t, mode, 7, &metrics.Service{})
		want, _ := p.Route(variants[0], nil)
		for _, kw := range variants[1:] {
			if got, _ := p.Route(kw, nil); got != want {
				t.Errorf("%s router: %q routed to shard %d, %q to %d", mode, variants[0], want, kw, got)
			}
		}
	}
}

// TestAffinityRouterGroupsOverlap drives the affinity router directly:
// overlapping topics converge on one shard, disjoint topics fall back to the
// hash, and the decision counters add up.
func TestAffinityRouterGroupsOverlap(t *testing.T) {
	svc := &metrics.Service{}
	rt := newTestPlacer(t, RouterAffinity, 5, svc)

	first, _ := rt.Route([]string{"metabolism", "protein"}, nil)
	if got := svc.RouteHash.Value(); got != 1 {
		t.Fatalf("first decision should hash-fall-back (no affinity anywhere); hash routes = %d", got)
	}
	// Half-overlapping follow-ups join the topic's shard by affinity.
	for _, kw := range [][]string{
		{"metabolism", "gene"},
		{"protein", "metabolism"},
		{"gene", "protein"},
	} {
		if got, _ := rt.Route(kw, nil); got != first {
			t.Errorf("%q routed to shard %d, want topic shard %d", kw, got, first)
		}
	}
	if got := svc.RouteAffinity.Value(); got != 3 {
		t.Errorf("affinity hits = %d, want 3", got)
	}
	// A disjoint topic has no meaningful affinity: fixed hash decides.
	disjoint := []string{"quartz", "basalt"}
	want := hashShard(CanonicalKeywords(disjoint), 5)
	if got, _ := rt.Route(disjoint, nil); got != want {
		t.Errorf("disjoint topic routed to %d, want hash shard %d", got, want)
	}
	st := rt.Stats()
	if st.Mode != RouterAffinity || st.Decisions != 5 || st.AffinityHits != 3 || st.HashRoutes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.SharingMisses != 0 || st.MissRate != 0 {
		t.Errorf("affinity routing recorded sharing misses: %+v", st)
	}
	if len(st.Shards) != 5 || st.Shards[first].Keywords != 3 {
		t.Errorf("shard sets = %+v (topic shard %d should hold metabolism+protein+gene)", st.Shards, first)
	}
}

// TestHashRouterEstimatesSharingMisses: in hash mode the affinity index is
// still fed, so the router can report how often the fixed placement routed a
// query away from the shard that already held its topic.
func TestHashRouterEstimatesSharingMisses(t *testing.T) {
	svc := &metrics.Service{}
	rt := newTestPlacer(t, RouterHash, 4, svc)
	// Find two overlapping keyword sets whose hashes disagree.
	base := []string{"metabolism", "protein"}
	overlapping := [][]string{
		{"metabolism", "gene"},
		{"metabolism", "membrane"},
		{"metabolism", "plasma"},
		{"metabolism", "kinase"},
	}
	home, _ := rt.Route(base, nil)
	missed := false
	for _, kw := range overlapping {
		if hashShard(CanonicalKeywords(kw), 4) != home {
			rt.Route(kw, nil)
			missed = true
			break
		}
	}
	if !missed {
		t.Skip("no overlapping set hashed away from the topic shard at 4 shards")
	}
	st := rt.Stats()
	if st.SharingMisses != 1 || st.AffinityHits != 0 || st.HashRoutes != 2 {
		t.Errorf("stats = %+v, want exactly one sharing miss over two hash routes", st)
	}
	if st.MissRate != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", st.MissRate)
	}
}

// TestParseRouter validates the knob surface.
func TestParseRouter(t *testing.T) {
	for in, want := range map[string]string{"": RouterAffinity, "affinity": RouterAffinity, "hash": RouterHash} {
		got, err := ParseRouter(in)
		if err != nil || got != want {
			t.Errorf("ParseRouter(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := ParseRouter("random"); err == nil {
		t.Error("unknown router accepted")
	}
}
