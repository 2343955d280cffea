// Package graph provides the graph substrate used throughout joinpebble:
// general undirected graphs, bipartite join graphs, traversals, line
// graphs, incidence graphs and the Hamiltonian-path searches that the
// paper's arguments rest on.
//
// Vertices are dense integers 0..N()-1. Edges are unordered pairs,
// deduplicated, and indexed 0..M()-1 in insertion order; the edge index is
// what the line graph and the pebbling machinery key on.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Edge is an undirected edge between vertices U and V. Invariant: U <= V
// once stored in a Graph (Normalize enforces it).
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// SharesEndpoint reports whether e and f have a common endpoint.
func (e Edge) SharesEndpoint(f Edge) bool {
	return e.U == f.U || e.U == f.V || e.V == f.U || e.V == f.V
}

// Graph is a simple undirected graph with a fixed vertex count and a
// deduplicated, insertion-ordered edge list. The zero value is an empty
// graph with no vertices; use New to create one with vertices.
//
// Graphs have two representations. The mutable one — adjacency lists plus
// a map[Edge]int — supports AddEdge/AddVertex. Freeze (or, internally,
// Optimize) additionally builds a compact CSR-style index that turns the
// adjacency tests and incident-edge queries on the hot paths (line-graph
// construction, the path partition, scheme simulation) into allocation-free
// array reads. A frozen graph rejects mutation and is safe for concurrent
// readers.
type Graph struct {
	n     int
	edges []Edge
	index map[Edge]int // normalized edge -> position in edges; nil for graphs built frozen
	adj   [][]int      // adjacency lists (neighbor vertex ids)

	//joinlint:lockrank graph-csr 70
	csrMu  sync.Mutex // guards lazy construction of csr
	csr    *csr       // compact index; nil until Freeze/Optimize
	frozen bool       // mutation disabled once set
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:     n,
		index: make(map[Edge]int),
		adj:   make([][]int, n),
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := New(g.n)
	for _, e := range g.edges {
		h.AddEdge(e.U, e.V)
	}
	return h
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddVertex appends a fresh vertex and returns its id. It panics if the
// graph is frozen.
func (g *Graph) AddVertex() int {
	g.invalidateCSR("AddVertex")
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge inserts the undirected edge {u,v} and returns its edge index.
// Inserting an existing edge returns the original index without
// duplicating it. Self-loops are rejected: the pebble game and all join
// graphs in the paper are simple graphs. AddEdge panics if the graph is
// frozen.
func (g *Graph) AddEdge(u, v int) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	g.invalidateCSR("AddEdge")
	g.checkVertex(u)
	g.checkVertex(v)
	e := Edge{U: u, V: v}.Normalize()
	if i, ok := g.index[e]; ok {
		return i
	}
	i := len(g.edges)
	g.edges = append(g.edges, e)
	g.index[e] = i
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return i
}

// HasEdge reports whether {u,v} is an edge of g. On a frozen or optimized
// graph this is a binary search over the sorted neighbor span of the
// lower-degree endpoint; otherwise a map lookup.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	if c := g.csr; c != nil {
		_, ok := c.lookup(u, v)
		return ok
	}
	_, ok := g.index[Edge{U: u, V: v}.Normalize()]
	return ok
}

// EdgeIndex returns the index of edge {u,v} and whether it exists. Like
// HasEdge it takes the compact-index path on frozen/optimized graphs.
func (g *Graph) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return 0, false
	}
	if c := g.csr; c != nil {
		if u == v {
			return 0, false
		}
		return c.lookup(u, v)
	}
	i, ok := g.index[Edge{U: u, V: v}.Normalize()]
	return i, ok
}

// EdgeAt returns the i-th edge in insertion order.
func (g *Graph) EdgeAt(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Neighbors returns the neighbors of v in insertion order. The returned
// slice is owned by the graph and must not be mutated.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// MaxDegree returns the maximum vertex degree, or 0 for an edgeless graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// IncidentEdges returns the indices of edges incident to v, in increasing
// edge-index order. On a frozen or optimized graph the returned slice is
// a zero-copy view owned by the graph and must not be mutated (it sits
// inside LineGraph's inner loop, where the former per-call allocation
// dominated); otherwise it is freshly allocated.
func (g *Graph) IncidentEdges(v int) []int {
	g.checkVertex(v)
	if c := g.csr; c != nil {
		lo, hi := c.start[v], c.start[v+1]
		return c.edge[lo:hi:hi]
	}
	out := make([]int, 0, len(g.adj[v]))
	for _, u := range g.adj[v] {
		out = append(out, g.index[Edge{U: u, V: v}.Normalize()])
	}
	return out
}

// IsolatedVertices returns the vertices with degree zero. The paper
// removes these a priori (§2): the pebble game only concerns the edge set.
func (g *Graph) IsolatedVertices() []int {
	var out []int
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// WithoutIsolated returns a copy of g with isolated vertices removed and
// the remaining vertices renumbered densely, plus the old->new vertex map
// (entries for dropped vertices are -1). Edge insertion order is preserved,
// so edge indices are stable across the operation.
func (g *Graph) WithoutIsolated() (*Graph, []int) {
	remap := make([]int, g.n)
	next := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) == 0 {
			remap[v] = -1
			continue
		}
		remap[v] = next
		next++
	}
	h := New(next)
	for _, e := range g.edges {
		h.AddEdge(remap[e.U], remap[e.V])
	}
	return h, remap
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// renumbered 0..len(vs)-1 in the order given, plus the old->new map
// (-1 for excluded vertices). Duplicate entries in vs panic.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	remap := make([]int, g.n)
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range vs {
		g.checkVertex(v)
		if remap[v] != -1 {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced subgraph", v))
		}
		remap[v] = i
	}
	h := New(len(vs))
	for _, e := range g.edges {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			h.AddEdge(remap[e.U], remap[e.V])
		}
	}
	return h, remap
}

// Equal reports whether g and h have the same vertex count and the same
// edge set (insertion order is ignored).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.edges) != len(h.edges) {
		return false
	}
	for _, e := range g.edges {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		ds[v] = len(g.adj[v])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// String renders a compact description, e.g. "graph{n=4 m=3 [0-1 1-2 2-3]}".
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph{n=%d m=%d [", g.n, len(g.edges))
	for i, e := range g.edges {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d-%d", e.U, e.V)
	}
	sb.WriteString("]}")
	return sb.String()
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// DisjointUnion returns the disjoint union of g and h: h's vertices are
// shifted by g.N(). Edge order is g's edges followed by h's.
func DisjointUnion(g, h *Graph) *Graph {
	u := New(g.n + h.n)
	for _, e := range g.edges {
		u.AddEdge(e.U, e.V)
	}
	for _, e := range h.edges {
		u.AddEdge(e.U+g.n, e.V+g.n)
	}
	return u
}
