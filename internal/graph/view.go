package graph

// Adjacency is a read-only neighborhood oracle over vertices 0..N()-1 —
// the minimal interface the structural algorithms (the Theorem 3.1 DFS
// partition, small Hamiltonian searches) need. *Graph
// implements it directly; LineGraphView implements it for L(G) without
// materializing the line graph.
type Adjacency interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the number of neighbors of v.
	Degree(v int) int
	// HasEdge reports whether u and v are adjacent.
	HasEdge(u, v int) bool
	// AppendNeighbors appends the neighbors of v to buf and returns the
	// extended slice. Neighbors are distinct and never include v itself.
	AppendNeighbors(buf []int, v int) []int
}

// AppendNeighbors implements Adjacency by appending the adjacency list.
func (g *Graph) AppendNeighbors(buf []int, v int) []int {
	g.checkVertex(v)
	return append(buf, g.adj[v]...)
}

// LineGraphView is an implicit adjacency view of L(G): vertex i of the
// view is edge i of the base graph, and two view vertices are adjacent
// iff the underlying edges share an endpoint (§2.2). Unlike LineGraph it
// never materializes the O(Σ deg²) edge set — adjacency tests are O(1)
// endpoint comparisons and neighborhoods are walked directly off the
// base graph's incident-edge spans — which is what makes the Theorem 3.1
// construction affordable on dense instances (complete bipartite
// components, the G_n family) where |E(L(G))| dwarfs |E(G)|.
//
// The view holds the base graph's compact index, so the base must not be
// mutated while the view is in use.
type LineGraphView struct {
	g *Graph
	c *csr
}

// NewLineGraphView returns the implicit line-graph view of g, building
// g's compact index if needed.
func NewLineGraphView(g *Graph) *LineGraphView {
	return &LineGraphView{g: g, c: g.ensureCSR()}
}

// Base returns the underlying graph.
func (lv *LineGraphView) Base() *Graph { return lv.g }

// N implements Adjacency: L(G) has one vertex per edge of G.
func (lv *LineGraphView) N() int { return len(lv.g.edges) }

// Degree implements Adjacency: deg(u) + deg(v) − 2 for base edge {u,v}.
func (lv *LineGraphView) Degree(i int) int {
	e := lv.g.edges[i]
	c := lv.c
	return (c.start[e.U+1] - c.start[e.U]) + (c.start[e.V+1] - c.start[e.V]) - 2
}

// HasEdge implements Adjacency: view vertices are adjacent iff the
// underlying edges are distinct and share an endpoint.
func (lv *LineGraphView) HasEdge(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= len(lv.g.edges) || j >= len(lv.g.edges) {
		return false
	}
	return lv.g.edges[i].SharesEndpoint(lv.g.edges[j])
}

// AppendNeighbors implements Adjacency: the incident edges of both
// endpoints of base edge i, excluding i itself. The two spans are
// disjoint apart from i — a base edge sharing both endpoints with edge i
// would equal it — so no deduplication is needed.
func (lv *LineGraphView) AppendNeighbors(buf []int, i int) []int {
	e := lv.g.edges[i]
	c := lv.c
	for _, f := range c.edge[c.start[e.U]:c.start[e.U+1]] {
		if f != i {
			buf = append(buf, f)
		}
	}
	for _, f := range c.edge[c.start[e.V]:c.start[e.V+1]] {
		if f != i {
			buf = append(buf, f)
		}
	}
	return buf
}
