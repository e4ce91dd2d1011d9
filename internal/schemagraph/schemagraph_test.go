package schemagraph

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/tuple"
)

func buildGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	mk := func(name string) *tuple.Schema {
		return tuple.NewSchema(name,
			tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
			tuple.Column{Name: "txt", Type: tuple.KindString},
		)
	}
	g.AddNode(&Node{Rel: "A", DB: "d1", Schema: mk("A"), Authority: 0.1})
	g.AddNode(&Node{Rel: "B", DB: "d1", Schema: mk("B"), LinkTable: true})
	g.AddNode(&Node{Rel: "C", DB: "d2", Schema: mk("C")})
	g.AddEdge(&Edge{From: "A", To: "B", FromCol: 0, ToCol: 0, Cost: 0.5})
	g.AddEdge(&Edge{From: "B", To: "C", FromCol: 1, ToCol: 0, Cost: 0.7})
	return g
}

func TestNodesAndEdges(t *testing.T) {
	g := buildGraph(t)
	if len(g.Nodes()) != 3 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d", len(g.Nodes()), g.NumEdges())
	}
	if g.Node("A") == nil || g.Node("A").DB != "d1" {
		t.Error("node lookup")
	}
	if g.Node("missing") != nil {
		t.Error("missing node should be nil")
	}
	// Edges are bidirectional.
	fromB := g.EdgesFrom("B")
	if len(fromB) != 2 {
		t.Fatalf("B has %d edges, want 2", len(fromB))
	}
	for _, e := range fromB {
		if e.From != "B" {
			t.Error("reverse edge not normalised")
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	g := buildGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate node should panic")
		}
	}()
	g.AddNode(&Node{Rel: "A", DB: "d1"})
}

func TestEdgeUnknownEndpointPanics(t *testing.T) {
	g := buildGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("edge to unknown node should panic")
		}
	}()
	g.AddEdge(&Edge{From: "A", To: "ZZZ"})
}

func TestKeywordIndex(t *testing.T) {
	g := buildGraph(t)
	g.IndexTerm("Protein", Match{Rel: "A", Col: 1, Score: 0.7})
	g.IndexTerm("protein", Match{Rel: "C", Col: 1, Score: 0.9})
	ms := g.Lookup("PROTEIN") // case-insensitive
	if len(ms) != 2 {
		t.Fatalf("matches = %d", len(ms))
	}
	if ms[0].Score < ms[1].Score {
		t.Error("matches not sorted by score")
	}
	if ms[0].Rel != "C" {
		t.Errorf("best match = %s", ms[0].Rel)
	}
	if len(g.Lookup("nothing")) != 0 {
		t.Error("unknown keyword should match nothing")
	}
	terms := g.Terms()
	if len(terms) != 1 || terms[0] != "protein" {
		t.Errorf("terms = %v", terms)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := buildGraph(t)
	e1 := g.EdgesFrom("B")
	e2 := g.EdgesFrom("B")
	for i := range e1 {
		if e1[i].To != e2[i].To {
			t.Fatal("edge order nondeterministic")
		}
	}
}

// oldEdgesFrom and oldLookup are EdgesFrom and Lookup as they were while the
// graph stored insertion order and sorted a copy on every call.
func oldEdgesFrom(inserted []*Edge) []*Edge {
	edges := append([]*Edge(nil), inserted...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		if edges[i].FromCol != edges[j].FromCol {
			return edges[i].FromCol < edges[j].FromCol
		}
		return edges[i].ToCol < edges[j].ToCol
	})
	return edges
}

func oldLookup(inserted []Match) []Match {
	ms := append([]Match(nil), inserted...)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		if ms[i].Rel != ms[j].Rel {
			return ms[i].Rel < ms[j].Rel
		}
		return ms[i].Col < ms[j].Col
	})
	return ms
}

// The graph keeps adjacency and match lists sorted at insert time. After
// interleaved AddEdge / IndexTerm calls — keys arriving out of order, edges
// that tie on (To, FromCol, ToCol) and differ only in cost, matches that tie
// on (Score, Rel, Col) and differ only in the stored term's case — every list
// must read exactly as the old per-call sort of the insertion order did. The
// tied lists stay at most 12 long, where sort.Slice is an insertion sort and
// so stable; past that the old order of tied elements was whatever pdqsort
// left, which the long tie-free lists here do not depend on.
func TestInsertOrderMatchesOldSort(t *testing.T) {
	g := New()
	schema := func(name string) *tuple.Schema {
		return tuple.NewSchema(name,
			tuple.Column{Name: "id", Type: tuple.KindInt, Key: true},
			tuple.Column{Name: "a", Type: tuple.KindString},
			tuple.Column{Name: "b", Type: tuple.KindString},
		)
	}
	var rels []string
	for i := 0; i < 30; i++ {
		rel := fmt.Sprintf("R%02d", i)
		rels = append(rels, rel)
		g.AddNode(&Node{Rel: rel, DB: "d", Schema: schema(rel)})
	}
	inserted := map[string][]*Edge{} // what AddEdge appended to, per relation
	addEdge := func(e *Edge) {
		g.AddEdge(e)
		inserted[e.From] = append(inserted[e.From], e)
		inserted[e.To] = append(inserted[e.To], &Edge{From: e.To, To: e.From, FromCol: e.ToCol, ToCol: e.FromCol, Cost: e.Cost})
	}
	indexed := map[string][]Match{}
	indexTerm := func(term string, m Match) {
		g.IndexTerm(term, m)
		m.Term = term
		key := strings.ToLower(term)
		indexed[key] = append(indexed[key], m)
	}

	// A scrambled walk: R00 fans out to every relation (29 edges, no ties)
	// while "hub" collects 29 matches with distinct scores; R01's list is
	// short with ties, and so is "tie"'s.
	for i, step := range []int{17, 3, 28, 9, 22, 1, 14, 26, 6, 19, 11, 29, 4, 24, 8, 16, 2, 21, 13, 27, 7, 18, 10, 25, 5, 23, 12, 20, 15} {
		addEdge(&Edge{From: "R00", To: rels[step], FromCol: step % 3, ToCol: (step + 1) % 3, Cost: float64(i)})
		indexTerm("hub", Match{Rel: rels[step], Col: 1, Score: 1 / float64(1+step)})
		if i%10 == 0 {
			addEdge(&Edge{From: "R01", To: "R02", FromCol: 1, ToCol: 2, Cost: float64(i)}) // ties with itself
			addEdge(&Edge{From: "R01", To: "R02", FromCol: 0, ToCol: 2, Cost: float64(i)}) // sorts before the ties
			indexTerm("Tie", Match{Rel: "R05", Col: 2, Score: 0.5})
			indexTerm("tie", Match{Rel: "R05", Col: 2, Score: 0.5})
			indexTerm("TIE", Match{Rel: "R04", Col: 1, Score: 0.5})
		}
	}

	for _, rel := range rels {
		got, want := g.EdgesFrom(rel), oldEdgesFrom(inserted[rel])
		if len(got) != len(want) {
			t.Fatalf("%s: %d edges, want %d", rel, len(got), len(want))
		}
		for i := range want {
			if *got[i] != *want[i] {
				t.Errorf("%s edge %d = %+v, want %+v", rel, i, *got[i], *want[i])
			}
		}
	}
	if n := len(g.EdgesFrom("R00")); n != 29 {
		t.Fatalf("R00 has %d edges, want 29", n)
	}
	for term, ins := range indexed {
		got, want := g.Lookup(term), oldLookup(ins)
		if len(got) != len(want) {
			t.Fatalf("%q: %d matches, want %d", term, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q match %d = %+v, want %+v", term, i, got[i], want[i])
			}
		}
	}
	if n := len(g.Lookup("tie")); n != 9 || len(g.EdgesFrom("R01")) != 7 {
		t.Fatalf("tie lists: %d matches, %d edges", n, len(g.EdgesFrom("R01")))
	}
}

// A slice handed out by EdgesFrom or Lookup is a snapshot: a later insert
// builds a new one and leaves it alone.
func TestReturnedSlicesSurviveInserts(t *testing.T) {
	g := buildGraph(t)
	g.IndexTerm("k", Match{Rel: "B", Col: 1, Score: 0.5})
	edges, matches := g.EdgesFrom("B"), g.Lookup("k")
	wantEdges, wantMatches := append([]*Edge(nil), edges...), append([]Match(nil), matches...)
	g.AddEdge(&Edge{From: "B", To: "A", FromCol: 1, ToCol: 1, Cost: 0.1}) // sorts between B's two
	g.IndexTerm("K", Match{Rel: "A", Col: 1, Score: 0.9})                 // sorts first in k's list
	for i := range wantEdges {
		if edges[i] != wantEdges[i] {
			t.Errorf("edge %d of an earlier EdgesFrom result changed", i)
		}
	}
	for i := range wantMatches {
		if matches[i] != wantMatches[i] {
			t.Errorf("match %d of an earlier Lookup result changed", i)
		}
	}
	if got := g.EdgesFrom("B"); len(got) != 3 || got[1].To != "A" || got[1].FromCol != 1 {
		t.Errorf("EdgesFrom after insert = %v", got)
	}
	if got := g.Lookup("k"); len(got) != 2 || got[0].Rel != "A" {
		t.Errorf("Lookup after insert = %v", got)
	}
}

func TestGenerationCountsMutations(t *testing.T) {
	g := New()
	if g.Generation() != 0 {
		t.Fatalf("empty graph at generation %d", g.Generation())
	}
	g = buildGraph(t) // 3 nodes, 2 edges
	if g.Generation() != 5 {
		t.Fatalf("generation = %d after 5 mutations", g.Generation())
	}
	g.IndexTerm("k", Match{Rel: "A", Col: 1, Score: 0.5})
	if g.Generation() != 6 {
		t.Errorf("IndexTerm did not advance the generation")
	}
	g.Lookup("k")
	g.EdgesFrom("A")
	g.Node("A")
	if g.Generation() != 6 {
		t.Errorf("a read advanced the generation")
	}
}
