package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
)

// checkLemma31 asserts the Lemma 3.1 invariants on a path partition of
// lg, the line graph of a connected graph with m = lg.N() edges: every
// piece is a path in lg, every piece but the last has at least 4
// vertices, the pieces partition V(lg), and the concatenated tour costs
// at most the Theorem 3.1 bound m + floor((m−1)/4).
func checkLemma31(t *testing.T, name string, lg graph.Adjacency, pieces [][]int) {
	t.Helper()
	m := lg.N()
	seen := make([]bool, m)
	var order []int
	for i, p := range pieces {
		if len(p) < 4 && i != len(pieces)-1 {
			t.Fatalf("%s: piece %d of %d has %d < 4 vertices", name, i, len(pieces), len(p))
		}
		for j, v := range p {
			if v < 0 || v >= m || seen[v] {
				t.Fatalf("%s: piece %d repeats or leaves V(L) at vertex %d", name, i, v)
			}
			seen[v] = true
			if j > 0 && !lg.HasEdge(p[j-1], v) {
				t.Fatalf("%s: piece %d is not a path: %d–%d is not an edge of L", name, i, p[j-1], v)
			}
		}
		order = append(order, p...)
	}
	if len(order) != m {
		t.Fatalf("%s: pieces cover %d of %d vertices of L", name, len(order), m)
	}
	cost := m
	for i := 1; i < len(order); i++ {
		if !lg.HasEdge(order[i-1], order[i]) {
			cost++ // a jump between pieces
		}
	}
	if bound := m + (m-1)/4; cost > bound {
		t.Fatalf("%s: tour cost %d exceeds the Theorem 3.1 bound %d (m=%d)", name, cost, bound, m)
	}
}

// TestPathPartitionMaterializedMatchesView runs the path partition over
// a materialized line graph and over the implicit view on the same
// connected graphs. Both must satisfy Lemma 3.1. The pieces themselves
// may differ, since the two representations enumerate neighbors in
// different orders.
func TestPathPartitionMaterializedMatchesView(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var cases []*graph.Graph
	for _, n := range []int{1, 2, 5, 17, 40} {
		cases = append(cases, family.Spider(n).Graph())
	}
	for _, kl := range [][2]int{{1, 6}, {3, 4}, {6, 7}} {
		cases = append(cases, graph.CompleteBipartite(kl[0], kl[1]).Graph())
	}
	for i := 0; i < 8; i++ {
		nl, nr := 4+rng.Intn(12), 4+rng.Intn(12)
		lo, hi := nl+nr-1, nl*nr
		cases = append(cases, graph.RandomConnectedBipartite(rng, nl, nr, lo+rng.Intn(hi-lo+1)).Graph())
	}
	for i := 0; i < 8; i++ {
		n := 4 + rng.Intn(20)
		m := min(n-1+rng.Intn(2*n), n*(n-1)/2)
		cases = append(cases, graph.RandomConnectedGraph(rng, n, m, 0))
	}
	for ci, cg := range cases {
		for _, lg := range []graph.Adjacency{graph.LineGraph(cg.Clone()), graph.NewLineGraphView(cg.Clone())} {
			label := fmt.Sprintf("case %d (%T, m=%d)", ci, lg, cg.M())
			pieces, err := pathPartition(lg, false)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkLemma31(t, label, lg, pieces)
		}
	}
}
