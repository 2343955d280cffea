package tsp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// heldKarpOracle is the general Held–Karp DP the exact solver used
// before the {1,2}-weight subset DP replaced it, kept as the
// differential oracle: dp[S][v] = cheapest path visiting exactly the
// cities in S and ending at v, O(2^n · n²) time, 3·n·2^n bytes. Ties go
// to the first strict minimum, which ExactContext must reproduce tour
// for tour.
func heldKarpOracle(in *Instance) (Tour, int) {
	n := in.N()
	if n == 0 {
		return Tour{}, 0
	}
	if n == 1 {
		return Tour{0}, 0
	}

	const inf = math.MaxUint16
	size := 1 << n
	dp := make([]uint16, size*n)
	parent := make([]int8, size*n)
	for i := range dp {
		dp[i] = inf
	}
	for v := 0; v < n; v++ {
		dp[(1<<v)*n+v] = 0
		parent[(1<<v)*n+v] = -1
	}

	// Precompute weights into a flat matrix for speed.
	w := make([]uint16, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				w[u*n+v] = uint16(in.Weight(u, v))
			}
		}
	}

	for s := 1; s < size; s++ {
		base := s * n
		for v := 0; v < n; v++ {
			cur := dp[base+v]
			if cur == inf || s&(1<<v) == 0 {
				continue
			}
			for u := 0; u < n; u++ {
				if s&(1<<u) != 0 {
					continue
				}
				ns := s | 1<<u
				cand := cur + w[v*n+u]
				if cand < dp[ns*n+u] {
					dp[ns*n+u] = cand
					parent[ns*n+u] = int8(v)
				}
			}
		}
	}

	full := size - 1
	best, bestEnd := uint16(inf), -1
	for v := 0; v < n; v++ {
		if dp[full*n+v] < best {
			best = dp[full*n+v]
			bestEnd = v
		}
	}

	// Reconstruct.
	tour := make(Tour, 0, n)
	s, v := full, bestEnd
	for v != -1 {
		tour = append(tour, v)
		p := int(parent[s*n+v])
		s &^= 1 << v
		v = p
	}
	// Reverse into visit order.
	for i, j := 0, len(tour)-1; i < j; i, j = i+1, j-1 {
		tour[i], tour[j] = tour[j], tour[i]
	}
	return tour, int(best)
}

// checkMatchesOracle fails t unless ExactContext returns exactly the
// oracle's tour and cost on in, and that cost is the tour's own.
func checkMatchesOracle(t testing.TB, name string, in *Instance) {
	t.Helper()
	want, wantCost := heldKarpOracle(in)
	got, gotCost, err := ExactContext(context.Background(), in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if gotCost != wantCost || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: exact %v (cost %d), Held–Karp %v (cost %d) on %v",
			name, got, gotCost, want, wantCost, in.Good)
	}
	if c := in.Cost(got); c != gotCost {
		t.Fatalf("%s: reported cost %d, tour %v costs %d", name, gotCost, got, c)
	}
}

// TestExactMatchesHeldKarpExhaustive: every labeled good graph on at
// most 6 cities, 2^15 of them at n = 6.
func TestExactMatchesHeldKarpExhaustive(t *testing.T) {
	for n := 0; n <= 6; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := graph.New(n)
			for i, p := range pairs {
				if mask&(1<<i) != 0 {
					g.AddEdge(p[0], p[1])
				}
			}
			checkMatchesOracle(t, fmt.Sprintf("n=%d mask=%#x", n, mask), NewInstance(g))
		}
	}
}

// TestExactMatchesHeldKarpRandom: seeded random good graphs on up to 14
// cities, from nearly empty to nearly complete, connected or not.
func TestExactMatchesHeldKarpRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	densities := []float64{0.05, 0.15, 0.3, 0.5, 0.7, 0.9}
	for trial := 0; trial < 2100; trial++ {
		n := 2 + rng.Intn(13)
		p := densities[trial%len(densities)]
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.AddEdge(u, v)
				}
			}
		}
		checkMatchesOracle(t, fmt.Sprintf("trial %d (n=%d p=%.2f)", trial, n, p), NewInstance(g))
	}
}

// TestExactMatchesHeldKarpLineGraphs: the instances the pebbling solver
// actually builds — line graphs of spiders (Theorem 3.3's family) and
// of random connected bipartite join graphs.
func TestExactMatchesHeldKarpLineGraphs(t *testing.T) {
	for n := 1; n <= 8; n++ {
		lg := graph.LineGraph(family.Spider(n).Graph())
		checkMatchesOracle(t, fmt.Sprintf("spider-%d", n), NewInstance(lg))
	}
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		nl, nr := 2+rng.Intn(5), 2+rng.Intn(5)
		maxM := nl * nr
		if maxM > 15 {
			maxM = 15
		}
		m := nl + nr - 1 + rng.Intn(maxM-(nl+nr-1)+1)
		if m > nl*nr {
			m = nl * nr
		}
		g := graph.RandomConnectedBipartite(rng, nl, nr, m).Graph()
		checkMatchesOracle(t, fmt.Sprintf("bipartite %dx%d m=%d", nl, nr, m), NewInstance(graph.LineGraph(g)))
	}
}

// FuzzExactMatchesHeldKarp: arbitrary good graphs on up to 12 cities,
// one edge per byte pair.
func FuzzExactMatchesHeldKarp(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4})
	f.Add(uint8(8), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(12), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		g := graph.New(int(n % 13))
		if g.N() >= 2 {
			for i := 0; i+1 < len(edges); i += 2 {
				u, v := int(edges[i])%g.N(), int(edges[i+1])%g.N()
				if u != v && !g.HasEdge(u, v) {
					g.AddEdge(u, v)
				}
			}
		}
		checkMatchesOracle(t, "fuzz", NewInstance(g))
	})
}

// TestExactWorkCounter: a full solve resolves every (subset, endpoint)
// pair once and flushes exactly n·2^(n−1) into
// tsp/heldkarp/states_expanded, the count Held–Karp reported.
func TestExactWorkCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{2, 5, 11, 16} {
		ctx := obs.WithScope(context.Background(), obs.NewScope("test/tsp"))
		if _, _, err := ExactContext(ctx, NewInstance(randConn(rng, n))); err != nil {
			t.Fatal(err)
		}
		if got, want := cHeldKarpStates.In(ctx).Value(), int64(n)<<(n-1); got != want {
			t.Fatalf("n=%d: states_expanded = %d, want n·2^(n−1) = %d", n, got, want)
		}
	}
}

// TestExactMemoryGate: one solve at n = 20 allocates at most one 4-byte
// row per subset plus 64 KiB of slack — a deterministic stand-in for
// the exact rung's memory, measured as the TotalAlloc delta. The
// instance is the line graph of a random connected 6×6 bipartite graph
// with 20 edges, shaped like the components the pebbling solver sends.
func TestExactMemoryGate(t *testing.T) {
	const n = 20
	rng := rand.New(rand.NewSource(97))
	in := NewInstance(graph.LineGraph(graph.RandomConnectedBipartite(rng, 6, 6, n).Graph()))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := Exact(in); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Exact at n=%d allocated %d bytes", n, got)
	if limit := uint64(4<<n + 64<<10); got > limit {
		t.Fatalf("Exact at n=%d allocated %d bytes, want ≤ 4·2^n + 64KiB = %d", n, got, limit)
	}
}

// BenchmarkExactVsHeldKarp times ExactContext against the Held–Karp
// oracle on components shaped like the ones the exact rung solves (the
// line graph of a seed-7 random connected 6×6 bipartite graph with
// m = 16, 19, 22 edges), so one run gives the before/after pair:
//
//	go test -run - -bench ExactVsHeldKarp -benchtime 1x -benchmem ./internal/tsp/
func BenchmarkExactVsHeldKarp(b *testing.B) {
	for _, m := range []int{16, 19, 22} {
		rng := rand.New(rand.NewSource(7))
		in := NewInstance(graph.LineGraph(graph.RandomConnectedBipartite(rng, 6, 6, m).Graph()))
		b.Run(fmt.Sprintf("m=%d/exact", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Exact(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("m=%d/heldkarp", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				heldKarpOracle(in)
			}
		})
	}
}
