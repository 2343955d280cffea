package bench

// PerfSuite pins the hot-path benchmarks that cmd/bench measures and
// regression-checks: line-graph construction, the Theorem 3.1 path
// partition, equijoin solving, scheme simulation, fingerprinting, the
// scheme cache and frozen edge probes.
//
// Workloads are deterministic (fixed seeds, fixed families) so ns/op is
// the only thing that varies between runs.

import (
	"context"
	"math/rand"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/family"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/solver"
)

// PerfCase is one pinned benchmark.
type PerfCase struct {
	// Name is the stable series identifier, "<operation>/<workload>".
	Name string
	// Run is the benchmark body.
	Run func(b *testing.B)
	// Extra holds workload-derived scalars recorded alongside the timing
	// (solver cost ratios etc.); computed once at suite construction.
	Extra map[string]float64
}

// seed for the random workloads. Changing it invalidates comparisons
// against existing BENCH_*.json files, so don't.
const perfSeed = 7

// SiteBenchDisarmed is the never-armed fault site the
// faultinject/disarmed-fire series measures (DESIGN.md site registry).
const SiteBenchDisarmed = "bench/disarmed-site"

func perfBipartite(nl, nr, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(perfSeed))
	return graph.RandomConnectedBipartite(rng, nl, nr, m).Graph()
}

// multiComponent returns k disjoint copies of a random connected graph
// with n vertices and m edges each.
func multiComponent(k, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(perfSeed))
	out := graph.New(0)
	for i := 0; i < k; i++ {
		out = graph.DisjointUnion(out, graph.RandomConnectedGraph(rng, n, m, 0))
	}
	return out
}

// costRatio runs s once on g and returns π̂/m — recorded as a series Extra
// so a faster series is provably solving equally well.
func costRatio(s solver.Solver, g *graph.Graph) float64 {
	_, cost, err := solver.SolveAndVerify(s, g.Clone())
	if err != nil {
		panic("bench: perf workload solver failed: " + err.Error())
	}
	return float64(cost) / float64(g.M())
}

// SmokeSuite returns reduced-size kernel benchmarks for CI smoke runs:
// fingerprinting, a scheme-cache hit and the arena-backed approx-1.25 at
// a fraction of the pinned workload sizes. Series names
// carry a smoke- prefix so they never match — and never stand in for —
// the pinned regression series; the point is catching kernel rot
// (panics, wrong answers, fallback misfires) in seconds, not timing.
func SmokeSuite() []PerfCase {
	spider := family.Spider(200).Graph() // m = 400
	return []PerfCase{
		{
			Name: "smoke-canon-fingerprint/spider-200-m400",
			Run: func(b *testing.B) {
				sc := graph.NewCanonScratch()
				for i := 0; i < b.N; i++ {
					graph.Canonicalize(spider.Clone(), sc)
				}
			},
		},
		{
			Name: "smoke-schemecache/hit-spider-200",
			Run: func(b *testing.B) {
				p := engine.Planner{Cache: schemecache.New(1<<24, 0)}
				in := engine.FromBipartite("spider", family.Spider(200))
				ctx := context.Background()
				if _, err := p.Run(ctx, in); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := p.Run(ctx, in)
					if err != nil {
						b.Fatal(err)
					}
					if res.Solver != engine.CachedSolverName {
						b.Fatal("warm run missed the cache")
					}
				}
			},
		},
		{
			Name: "smoke-approx125/spider-200-m400",
			Run: func(b *testing.B) {
				var s solver.Approx125
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(spider.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}

// PerfSuite returns the pinned benchmark cases.
func PerfSuite() []PerfCase {
	spider := family.Spider(1000).Graph() // m = 2000
	bip := perfBipartite(60, 40, 2400)    // dense bipartite, m = 2400
	wide := perfBipartite(100, 100, 3000) // sparser bipartite, m = 3000
	multi := multiComponent(8, 120, 300)  // 8 components, m = 2400 total
	equi := func() *graph.Graph {         // 12 complete-bipartite islands, m = 4800
		out := graph.New(0)
		for i := 0; i < 12; i++ {
			out = graph.DisjointUnion(out, graph.CompleteBipartite(10, 40).Graph())
		}
		return out
	}()

	var approx solver.Approx125
	ratioSpider := costRatio(approx, spider)
	ratioBip := costRatio(approx, bip)
	ratioEqui := costRatio(solver.Equijoin{}, equi)

	// A long valid scheme for the simulate workload.
	simScheme, _, err := solver.SolveAndVerify(solver.Naive{}, bip.Clone())
	if err != nil {
		panic("bench: naive scheme failed: " + err.Error())
	}

	cases := []PerfCase{
		{
			Name: "linegraph/spider-1000-m2000",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					graph.LineGraph(spider.Clone())
				}
			},
		},
		{
			Name: "linegraph/bip-60x40-m2400",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					graph.LineGraph(bip.Clone())
				}
			},
		},
		{
			Name:  "approx125/spider-1000-m2000",
			Extra: map[string]float64{"cost_ratio": ratioSpider},
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := approx.Solve(spider.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "approx125/bip-60x40-m2400",
			Extra: map[string]float64{"cost_ratio": ratioBip},
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := approx.Solve(bip.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "solve-multicomponent/approx125-8x300",
			Extra: map[string]float64{"components": 8},
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := approx.Solve(multi.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "equijoin/islands-12xK10-40-m4800",
			Extra: map[string]float64{"cost_ratio": ratioEqui},
			Run: func(b *testing.B) {
				var s solver.Equijoin
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(equi.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "simulate/bip-60x40-m2400",
			Run: func(b *testing.B) {
				// Simulating is the repeated operation, so freezing the
				// graph is not timed.
				g := bip.Clone()
				g.Freeze()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Simulate(g, simScheme)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Complete() {
						b.Fatal("scheme must delete every edge")
					}
				}
			},
		},
		{
			// The disarmed fault-injection fast path: one atomic load, no
			// branches taken. This series pins the claim that shipping the
			// sites in hot loops (exact-DP checkpoints, component solves)
			// is free when nothing is armed; the solver series above prove
			// it end to end against the pre-injection baseline.
			Name: "faultinject/disarmed-fire",
			Run: func(b *testing.B) {
				faultinject.Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := faultinject.Fire(SiteBenchDisarmed); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "canon-fingerprint/spider-1000-m2000",
			Run: func(b *testing.B) {
				sc := graph.NewCanonScratch()
				g := spider.Clone()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					graph.Canonicalize(g, sc)
				}
			},
		},
		{
			Name: "canon-fingerprint/bip-60x40-m2400",
			Run: func(b *testing.B) {
				sc := graph.NewCanonScratch()
				g := bip.Clone()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					graph.Canonicalize(g, sc)
				}
			},
		},
		{
			// Warm-cache planner run on the spider workload: fingerprint,
			// shard lookup, translate, re-verify. Compare against the cold
			// approx125/spider-1000-m2000 series above — the gap is the
			// latency the scheme cache buys on repeated instances.
			Name: "schemecache/hit",
			Run: func(b *testing.B) {
				p := engine.Planner{Cache: schemecache.New(1<<26, 0)}
				in := engine.FromBipartite("spider", family.Spider(1000))
				ctx := context.Background()
				if _, err := p.Run(ctx, in); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := p.Run(ctx, in)
					if err != nil {
						b.Fatal(err)
					}
					if res.Solver != engine.CachedSolverName {
						b.Fatal("warm run missed the cache")
					}
				}
			},
		},
		{
			// Cold cache-on planner run: miss, full solve, canonical insert.
			// Against approx125/spider-1000-m2000 this prices the cache's
			// overhead on a solve that gains nothing from it.
			Name: "schemecache/miss",
			Run: func(b *testing.B) {
				in := engine.FromBipartite("spider", family.Spider(1000))
				ctx := context.Background()
				var p engine.Planner
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Cache = schemecache.New(1<<26, 0)
					res, err := p.Run(ctx, in)
					if err != nil {
						b.Fatal(err)
					}
					if res.Solver == engine.CachedSolverName {
						b.Fatal("cold run cannot hit")
					}
				}
			},
		},
		{
			Name: "hasedge/bip-100x100-m3000",
			Run: func(b *testing.B) {
				g := wide.Clone()
				g.Freeze()
				n := g.N()
				b.ResetTimer()
				hits := 0
				for i := 0; i < b.N; i++ {
					if g.HasEdge(i%n, (i*31+7)%n) {
						hits++
					}
				}
				_ = hits
			},
		},
	}
	return cases
}
