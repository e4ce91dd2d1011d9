// Package schemagraph models the known schema graph of Figure 1: relations
// from (possibly many) database instances as nodes, with edges for foreign
// keys, hyperlinks and record-linking join relationships, each annotated with
// a cost (the Q System's learned edge costs, §2.1). It also hosts the keyword
// index that matches search terms to relations — either by name/metadata or
// through an inverted index over content — producing the scored matches that
// seed candidate-network generation.
package schemagraph

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/tuple"
)

// Node is one relation in the schema graph.
type Node struct {
	// Rel is the relation name (unique across the graph).
	Rel string
	// DB names the owning database instance.
	DB string
	// Schema is the relation schema.
	Schema *tuple.Schema
	// Authority is the Q System node cost: lower is more authoritative.
	Authority float64
	// LinkTable marks record-linking relations (orange squares in Fig. 1).
	LinkTable bool
}

// Edge is a potential join relationship between two relations.
type Edge struct {
	// From/To are relation names; edges are undirected for search purposes.
	From, To string
	// FromCol/ToCol are the joinable column indexes.
	FromCol, ToCol int
	// Cost is the learned edge cost (§2.1, Q System model): the static score
	// component accumulates these.
	Cost float64
}

// Graph is the schema graph plus the keyword index.
type Graph struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	// adj holds each relation's outgoing edges in EdgesFrom's order.
	adj map[string][]*Edge

	// inverted maps lower-cased keyword -> matches, in Lookup's order.
	inverted map[string][]Match

	// gen counts the mutations (AddNode, AddEdge, IndexTerm) so far.
	gen uint64
}

// Match is one keyword-to-relation match with its IR-style similarity score
// (Figure 1: a keyword may match a table by name or by content).
type Match struct {
	// Rel is the matched relation.
	Rel string
	// Col is the column the keyword matched (-1 for a metadata/name match).
	Col int
	// Term is the stored term that matched.
	Term string
	// Score is the match similarity in (0, 1].
	Score float64
	// Exact marks name/metadata matches, which require no selection constant;
	// content matches add the selection Rel.Col = Term to generated queries.
	Exact bool
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodes:    map[string]*Node{},
		adj:      map[string][]*Edge{},
		inverted: map[string][]Match{},
	}
}

// AddNode registers a relation node; relation names must be globally unique.
func (g *Graph) AddNode(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.nodes[n.Rel]; dup {
		panic(fmt.Sprintf("schemagraph: duplicate node %q", n.Rel))
	}
	g.nodes[n.Rel] = n
	g.gen++
}

// AddEdge registers a join relationship; both endpoints must exist.
func (g *Graph) AddEdge(e *Edge) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.nodes[e.From] == nil || g.nodes[e.To] == nil {
		panic(fmt.Sprintf("schemagraph: edge %s-%s references unknown node", e.From, e.To))
	}
	g.adj[e.From] = insertSorted(g.adj[e.From], e, edgeBefore)
	rev := &Edge{From: e.To, To: e.From, FromCol: e.ToCol, ToCol: e.FromCol, Cost: e.Cost}
	g.adj[e.To] = insertSorted(g.adj[e.To], rev, edgeBefore)
	g.gen++
}

// Generation counts the graph's mutations so far (AddNode, AddEdge,
// IndexTerm). Anything derived from the graph — a cached candidate-network
// skeleton — is current exactly while the generation it was derived at is.
func (g *Graph) Generation() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.gen
}

// insertSorted returns a new slice holding s and v in before's order, with v
// after every element it ties with. The insert copies, so a slice a reader
// got from EdgesFrom or Lookup never changes under it.
func insertSorted[T any](s []T, v T, before func(a, b T) bool) []T {
	i := sort.Search(len(s), func(i int) bool { return before(v, s[i]) })
	out := make([]T, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	return append(out, s[i:]...)
}

// edgeBefore orders one relation's outgoing edges: by target, then columns.
func edgeBefore(a, b *Edge) bool {
	if a.To != b.To {
		return a.To < b.To
	}
	if a.FromCol != b.FromCol {
		return a.FromCol < b.FromCol
	}
	return a.ToCol < b.ToCol
}

// matchBefore orders one keyword's matches: best score first, then relation
// and column.
func matchBefore(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Col < b.Col
}

// Node returns the named node, or nil.
func (g *Graph) Node(rel string) *Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[rel]
}

// Nodes returns all relation names, sorted.
func (g *Graph) Nodes() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	names := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EdgesFrom returns the outgoing edges of rel ordered by target relation,
// then from-column, then to-column; edges that tie on all three keep the
// order they were added in. The result is the graph's own slice: read-only.
func (g *Graph) EdgesFrom(rel string) []*Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.adj[rel]
}

// NumEdges returns the number of (undirected) edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// IndexTerm registers a keyword match in the inverted index.
func (g *Graph) IndexTerm(term string, m Match) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m.Term = term
	key := strings.ToLower(term)
	g.inverted[key] = insertSorted(g.inverted[key], m, matchBefore)
	g.gen++
}

// Lookup returns the matches for a keyword (case-insensitive), best score
// first, then by relation and column; matches that tie on all three keep the
// order they were indexed in. The result is the graph's own slice: read-only.
func (g *Graph) Lookup(keyword string) []Match {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.inverted[strings.ToLower(keyword)]
}

// Terms returns all indexed keywords, sorted (used by workload generators to
// pick query keywords).
func (g *Graph) Terms() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ts := make([]string, 0, len(g.inverted))
	for t := range g.inverted {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}
