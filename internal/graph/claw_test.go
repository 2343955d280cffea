package graph_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"joinpebble/internal/engine"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/workload"
)

// findClaw searches a for an induced K₁,₃ (a claw): a center with three
// pairwise non-adjacent neighbors. It scans centers in ascending order
// and returns the first claw found, or ok=false if a is claw-free.
// Line graphs are always claw-free (Beineke), which is the precondition
// of Theorem 3.1's DFS construction; this scalar scan is the oracle the
// tests below check that fact with.
func findClaw(a graph.Adjacency) (center int, leaves [3]int, ok bool) {
	var nb []int
	for v := 0; v < a.N(); v++ {
		nb = a.AppendNeighbors(nb[:0], v)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if a.HasEdge(nb[i], nb[j]) {
					continue
				}
				for k := j + 1; k < len(nb); k++ {
					if !a.HasEdge(nb[i], nb[k]) && !a.HasEdge(nb[j], nb[k]) {
						return v, [3]int{nb[i], nb[j], nb[k]}, true
					}
				}
			}
		}
	}
	return 0, [3]int{}, false
}

// requireClawFree asserts L(g) is claw-free, both materialized and
// through the implicit view.
func requireClawFree(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	for _, lg := range []graph.Adjacency{graph.LineGraph(g.Clone()), graph.NewLineGraphView(g.Clone())} {
		if c, l, ok := findClaw(lg); ok {
			t.Fatalf("%s: L(G) (%T) has a claw at %d with leaves %v", name, lg, c, l)
		}
	}
}

func TestLineGraphClawFree(t *testing.T) {
	t.Run("random-bipartite", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		cfg := &quick.Config{MaxCount: 60, Rand: rng}
		err := quick.Check(func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			nl, nr := 3+r.Intn(4), 3+r.Intn(4)
			minM, maxM := nl+nr-1, nl*nr
			m := minM + r.Intn(maxM-minM+1)
			b := graph.RandomConnectedBipartite(r, nl, nr, m)
			_, _, claw := findClaw(graph.LineGraph(b.Graph()))
			return !claw
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("spider", func(t *testing.T) {
		for _, k := range []int{1, 2, 3, 10, 40} {
			requireClawFree(t, fmt.Sprintf("spider-%d", k), family.Spider(k).Graph())
		}
	})
	t.Run("complete-bipartite", func(t *testing.T) {
		for _, kl := range [][2]int{{1, 3}, {1, 7}, {2, 2}, {3, 5}, {6, 6}} {
			requireClawFree(t, fmt.Sprintf("K%d,%d", kl[0], kl[1]), graph.CompleteBipartite(kl[0], kl[1]).Graph())
		}
	})
	t.Run("workloads", func(t *testing.T) {
		for _, w := range []engine.Workload{
			workload.Equijoin{LeftSize: 48, RightSize: 48, Domain: 8, Skew: 1.2},
			workload.SetContainment{LeftSize: 32, RightSize: 32, Universe: 40, LeftMax: 3, RightMax: 8, Correlated: true},
			workload.Spatial{LeftSize: 32, RightSize: 32, Span: 40, MaxExtent: 6, Clusters: 3},
		} {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := engine.Generate(w, seed)
				if err != nil {
					t.Fatal(err)
				}
				g := in.Graph()
				if g.M() == 0 {
					t.Fatalf("%s seed %d: empty join graph", w.Family(), seed)
				}
				requireClawFree(t, fmt.Sprintf("%s/seed%d", w.Family(), seed), g)
			}
		}
	})
}

// TestFindClawOnStar keeps the oracle honest: K₁,₃ is itself the claw,
// and a larger star yields the first triple in ascending order.
func TestFindClawOnStar(t *testing.T) {
	for _, k := range []int{3, 7} {
		g := graph.CompleteBipartite(1, k).Graph()
		center, leaves, ok := findClaw(g)
		if !ok || center != 0 || leaves != [3]int{1, 2, 3} {
			t.Fatalf("K1,%d: findClaw = %d %v %v, want the claw at 0 with leaves [1 2 3]", k, center, leaves, ok)
		}
	}
}

// TestFindClawAgreement: claw detection through the implicit view must
// agree with detection on the materialized reference line graph.
func TestFindClawAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		n := 2 + rng.Intn(20)
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(maxM-n+2)
		if m > maxM {
			m = maxM
		}
		g := graph.RandomConnectedGraph(rng, n, m, 0)
		mc, ml, mok := findClaw(graph.LineGraphReference(g.Clone()))
		vc, vl, vok := findClaw(graph.NewLineGraphView(g.Clone()))
		if mok || vok {
			t.Fatalf("graph %d: claw in L(G): materialized %v at %d %v, view %v at %d %v", i, mok, mc, ml, vok, vc, vl)
		}
	}
}
