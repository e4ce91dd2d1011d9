// Package plangraph defines the query plan graph of §4: a DAG whose nodes
// compute canonical subexpressions and whose edges carry pipelined rows.
// Source nodes wrap streaming or random-access inputs; join nodes are m-joins
// (STeM eddies); fan-out — a node with several consumers — is the paper's
// split operator; per-CQ endpoints feed the rank-merge operator of each user
// query. Node identity is the canonical expression key, which is what makes
// grafting (§6.2) and cross-batch reuse possible: a new query's plan matches
// an old node exactly when they compute the same expression.
package plangraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/cq"
)

// Kind classifies plan nodes.
type Kind int

const (
	// SourceStream reads a (possibly pushed-down) expression in score order.
	SourceStream Kind = iota
	// SourceProbe wraps a random-access source (probe-only; never drives).
	SourceProbe
	// Join is an m-join over its input edges.
	Join
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SourceStream:
		return "stream"
	case SourceProbe:
		return "probe"
	default:
		return "mjoin"
	}
}

// Edge connects a producer node to a consumer join node.
type Edge struct {
	From, To *Node
	// InputIdx is the position of this edge among To's inputs.
	InputIdx int
	// AtomMap maps From.Expr atom positions to To.Expr atom positions.
	AtomMap []int
	// Probe marks the edge as a probe module: rows of From are fetched by
	// key on demand rather than streamed through.
	Probe bool
}

// Node is one operator in the plan graph.
type Node struct {
	// Key identifies the node: scope-prefixed canonical expression key.
	Key string
	// Expr is the expression the node computes; row parts align with
	// Expr.Atoms.
	Expr *cq.Expr
	// Kind classifies the node.
	Kind Kind
	// DB names the owning database for source nodes.
	DB string
	// Inputs are the join node's input edges (empty for sources).
	Inputs []*Edge
	// Consumers are the edges consuming this node's output. More than one
	// consumer means an implicit split operator (§4.1).
	Consumers []*Edge
}

// IsSplit reports whether the node fans out through a split operator.
func (n *Node) IsSplit() bool { return len(n.Consumers) > 1 }

// Endpoint connects a conjunctive query to its terminal node.
type Endpoint struct {
	// CQ is the conjunctive query.
	CQ *cq.CQ
	// Node computes the query's full expression.
	Node *Node
	// AtomMap maps Node.Expr atom positions to CQ atom indexes.
	AtomMap []int
}

// Graph is a query plan graph (one per ATC).
type Graph struct {
	// Scope namespaces node keys: "" shares everything (ATC-FULL / ATC-CL);
	// a UQ or CQ id isolates plans (ATC-UQ / ATC-CQ baselines).
	Scope string

	nodes map[string]*Node
	order []*Node
	ends  map[string]*Endpoint // by CQ id
}

// New creates an empty graph with the given sharing scope.
func New(scope string) *Graph {
	return &Graph{Scope: scope, nodes: map[string]*Node{}, ends: map[string]*Endpoint{}}
}

// NodeKey builds the scoped key for an expression and kind. The kind is part
// of the identity: a pushed-down stream computing X at a remote database and
// a middleware m-join computing X are different physical operators with
// different state, even though they are logically equivalent.
func (g *Graph) NodeKey(kind Kind, exprKey string) string {
	prefix := ""
	if g.Scope != "" {
		prefix = g.Scope + "::"
	}
	switch kind {
	case SourceStream:
		prefix += "stream::"
	case SourceProbe:
		prefix += "probe::"
	default:
		prefix += "join::"
	}
	return prefix + exprKey
}

// Node returns the node with the given scoped key, or nil.
func (g *Graph) Node(key string) *Node { return g.nodes[key] }

// Nodes returns all nodes in creation order.
func (g *Graph) Nodes() []*Node { return g.order }

// Endpoint returns the endpoint of a CQ, or nil.
func (g *Graph) Endpoint(cqID string) *Endpoint { return g.ends[cqID] }

// Endpoints returns all endpoints sorted by CQ id.
func (g *Graph) Endpoints() []*Endpoint {
	out := make([]*Endpoint, 0, len(g.ends))
	for _, e := range g.ends {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CQ.ID < out[j].CQ.ID })
	return out
}

// EnsureNode returns the node for (kind, expr), creating it if absent.
func (g *Graph) EnsureNode(kind Kind, expr *cq.Expr, db string) *Node {
	key := g.NodeKey(kind, expr.Key())
	if n, ok := g.nodes[key]; ok {
		return n
	}
	n := &Node{Key: key, Expr: expr, Kind: kind, DB: db}
	g.nodes[key] = n
	g.order = append(g.order, n)
	return n
}

// Connect adds an edge from producer to consumer join node.
func (g *Graph) Connect(from, to *Node, atomMap []int, probe bool) *Edge {
	if to.Kind != Join {
		panic("plangraph: only join nodes take inputs")
	}
	e := &Edge{From: from, To: to, InputIdx: len(to.Inputs), AtomMap: atomMap, Probe: probe}
	to.Inputs = append(to.Inputs, e)
	from.Consumers = append(from.Consumers, e)
	return e
}

// SetEndpoint registers the terminal node of a CQ.
func (g *Graph) SetEndpoint(q *cq.CQ, node *Node, atomMap []int) *Endpoint {
	ep := &Endpoint{CQ: q, Node: node, AtomMap: atomMap}
	g.ends[q.ID] = ep
	return ep
}

// RemoveEndpoint unlinks a completed CQ's endpoint (§6.3). Nodes and state
// remain for reuse until evicted.
func (g *Graph) RemoveEndpoint(cqID string) { delete(g.ends, cqID) }

// HasEndpointOn reports whether any registered (still-active) endpoint
// terminates at the node.
func (g *Graph) HasEndpointOn(n *Node) bool {
	for _, ep := range g.ends {
		if ep.Node == n {
			return true
		}
	}
	return false
}

// Evictable reports whether the node is structurally eligible for eviction
// (§6.3): nothing consumes its output and no active endpoint terminates at
// it. Runtime liveness (attached sinks, execution bindings) is the state
// manager's side of the check.
func (g *Graph) Evictable(n *Node) bool {
	return len(n.Consumers) == 0 && !g.HasEndpointOn(n)
}

// Detach removes the node's input edges from its parents and deletes the
// node (eviction path, §6.3). The node must have no consumers.
func (g *Graph) Detach(n *Node) {
	if len(n.Consumers) > 0 {
		panic("plangraph: Detach of node with consumers: " + n.Key)
	}
	for _, e := range n.Inputs {
		for i, c := range e.From.Consumers {
			if c == e {
				e.From.Consumers = append(e.From.Consumers[:i], e.From.Consumers[i+1:]...)
				break
			}
		}
	}
	n.Inputs = nil
	g.RemoveNode(n)
}

// RemoveNode deletes a node from the graph. The caller must already have
// detached its edges.
func (g *Graph) RemoveNode(n *Node) {
	delete(g.nodes, n.Key)
	for i, x := range g.order {
		if x == n {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

// PruneOrphans removes join nodes among `eligible` that feed no consumer and
// serve no endpoint, cascading upstream. The factorizer passes the set of
// nodes it created in the current build: pre-existing consumer-less nodes are
// cached state managed by the query state manager (§6.3), never pruned here.
func (g *Graph) PruneOrphans(eligible map[*Node]bool) {
	endpointNodes := map[*Node]bool{}
	for _, ep := range g.ends {
		endpointNodes[ep.Node] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range append([]*Node(nil), g.order...) {
			if n.Kind != Join || len(n.Consumers) > 0 || endpointNodes[n] || !eligible[n] {
				continue
			}
			for _, e := range n.Inputs {
				for i, c := range e.From.Consumers {
					if c == e {
						e.From.Consumers = append(e.From.Consumers[:i], e.From.Consumers[i+1:]...)
						break
					}
				}
			}
			g.RemoveNode(n)
			changed = true
		}
	}
}

// Validate checks structural invariants: edges well-formed, atom maps
// bijective onto consumer positions, every endpoint's node covering the full
// query with matching relations, and acyclicity.
func (g *Graph) Validate() error {
	for _, n := range g.order {
		if n.Kind == Join {
			if len(n.Inputs) < 2 {
				return fmt.Errorf("plangraph: join node %s has %d inputs", n.Key, len(n.Inputs))
			}
			covered := make([]int, len(n.Expr.Atoms))
			streams := 0
			for _, e := range n.Inputs {
				if !e.Probe {
					streams++
				}
				if len(e.AtomMap) != len(e.From.Expr.Atoms) {
					return fmt.Errorf("plangraph: edge %s->%s atom map arity", e.From.Key, n.Key)
				}
				for fi, ti := range e.AtomMap {
					if ti < 0 || ti >= len(n.Expr.Atoms) {
						return fmt.Errorf("plangraph: edge %s->%s maps atom out of range", e.From.Key, n.Key)
					}
					if e.From.Expr.Atoms[fi].Rel != n.Expr.Atoms[ti].Rel {
						return fmt.Errorf("plangraph: edge %s->%s relation mismatch at %d", e.From.Key, n.Key, fi)
					}
					covered[ti]++
				}
			}
			for ti, c := range covered {
				if c != 1 {
					return fmt.Errorf("plangraph: join %s atom %d covered %d times", n.Key, ti, c)
				}
			}
			if streams == 0 {
				return fmt.Errorf("plangraph: join %s has no streaming input", n.Key)
			}
		}
	}
	for id, ep := range g.ends {
		if len(ep.AtomMap) != len(ep.Node.Expr.Atoms) || len(ep.AtomMap) != len(ep.CQ.Atoms) {
			return fmt.Errorf("plangraph: endpoint %s atom map arity", id)
		}
		seen := make([]bool, len(ep.CQ.Atoms))
		for ni, ci := range ep.AtomMap {
			if ci < 0 || ci >= len(ep.CQ.Atoms) || seen[ci] {
				return fmt.Errorf("plangraph: endpoint %s atom map not bijective", id)
			}
			seen[ci] = true
			if ep.Node.Expr.Atoms[ni].Rel != ep.CQ.Atoms[ci].Rel {
				return fmt.Errorf("plangraph: endpoint %s relation mismatch at %d", id, ni)
			}
		}
	}
	return g.checkAcyclic()
}

func (g *Graph) checkAcyclic() error {
	state := map[*Node]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("plangraph: cycle through %s", n.Key)
		case 2:
			return nil
		}
		state[n] = 1
		for _, e := range n.Inputs {
			if err := visit(e.From); err != nil {
				return err
			}
		}
		state[n] = 2
		return nil
	}
	for _, n := range g.order {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarises the graph for reporting.
type Stats struct {
	Sources, Joins, Splits, Endpoints int
}

// Stats computes summary counts.
func (g *Graph) Stats() Stats {
	var s Stats
	for _, n := range g.order {
		switch n.Kind {
		case Join:
			s.Joins++
		default:
			s.Sources++
		}
		if n.IsSplit() {
			s.Splits++
		}
	}
	s.Endpoints = len(g.ends)
	return s
}

// Dump renders the graph for debugging, naming each node by its position in
// creation order: a build that created and pruned a transient node renders
// the same graph as one that never created it.
func (g *Graph) Dump() string {
	pos := make(map[*Node]int, len(g.order))
	for i, n := range g.order {
		pos[n] = i
	}
	var b strings.Builder
	for i, n := range g.order {
		fmt.Fprintf(&b, "[%d] %s %s", i, n.Kind, n.Key)
		if len(n.Inputs) > 0 {
			b.WriteString(" <- ")
			for i, e := range n.Inputs {
				if i > 0 {
					b.WriteString(", ")
				}
				tag := ""
				if e.Probe {
					tag = " (probe)"
				}
				fmt.Fprintf(&b, "[%d]%s", pos[e.From], tag)
			}
		}
		b.WriteByte('\n')
	}
	for _, ep := range g.Endpoints() {
		fmt.Fprintf(&b, "endpoint %s -> [%d]\n", ep.CQ.ID, pos[ep.Node])
	}
	return b.String()
}

// SourceSpec describes the source behind a stream/probe node (used by the
// executor to open remote connections).
type SourceSpec struct {
	Node *Node
	Mode costmodel.Mode
}
