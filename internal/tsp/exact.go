package tsp

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
)

// Exact-search effort counters: the intermediate quantities the solvers'
// exponential bounds talk about, accumulated in locals inside the search
// loops and flushed once per call so the hot loops stay counter-free.
// The bindings are scope-aware: searches invoked with a scoped context
// (an engine solve) flush into their request's obs.Scope; the handle is
// resolved once per search call, never inside the loops.
var (
	cHeldKarpStates = obs.ScopedCounter("tsp/heldkarp/states_expanded")
	cBnBNodes       = obs.ScopedCounter("tsp/bnb/nodes_expanded")
)

// Fault-injection sites (see the registry in DESIGN.md). Both sit at the
// search loops' cancellation checkpoints, so an armed Delay reliably
// pushes a deadline past expiry mid-component — the scenario the engine's
// degradation ladder must survive.
const (
	// SiteExactExpand fires every checkpointMask+1 subsets the exact
	// DP resolves; an injected error aborts the search with that error.
	SiteExactExpand = "tsp/exact/expand"
	// SiteBnBExpand fires every checkpointMask+1 branch-and-bound node
	// expansions; an injected error aborts the search as if canceled,
	// returning the incumbent.
	SiteBnBExpand = "tsp/bnb/expand"
)

// checkpointMask spaces the cancellation checks in both search loops:
// ctx.Err is consulted every checkpointMask+1 expansions, so a canceled
// context unwinds a component within a bounded number of expansions
// instead of only at component boundaries.
const checkpointMask = 0x3FF

// MaxExactCities bounds the exact solver. Its table holds one uint32
// per subset of cities, 4·2^n bytes (16 MiB at 22 cities), and a solve
// resolves n·2^(n−1) (subset, endpoint) pairs. The packed row layout
// needs n ≤ jumpShift.
const MaxExactCities = 22

// A DP row packs one subset S: the low jumpShift bits hold A0(S), the
// cities a fewest-jump path covering S can end at; the bits above hold
// j*(S), that fewest jump count.
const (
	jumpShift = 24
	endsMask  = 1<<jumpShift - 1
)

// Rows must leave room for every city's bit below the jump count.
const _ = uint(jumpShift - MaxExactCities)

// Exact computes an optimal tour by a dynamic program over city subsets
// that exploits the weights being only 1 and 2 (Proposition 2.2). For a
// subset S let j*(S) be the fewest jumps of any path covering S, and
// A0(S) the cities such a path can end at. Every other city of S ends
// some covering path with j*(S)+1 jumps: cut the best path x1…xk at
// xi = v and append the tail reversed, x1…x(i−1) xk…x(i+1) xi, which
// adds at most the one step x(i−1)→xk. So the best path covering
// T = S ∪ {u} and ending at u has
//
//	j*(S) + [A0(S) ∩ nbr(u) = ∅]
//
// jumps, and one packed word per subset (see jumpShift) is the whole
// table: O(2^n · n) word operations, 4·2^n bytes. The tour is rebuilt
// backward from the rows alone, breaking ties toward the lowest city as
// Held–Karp's first strict minimum does, so the tour is the one
// Held–Karp over dp[S][v] would return, not just one of equal cost.
// It returns an error for instances above MaxExactCities; callers
// should fall back to BranchAndBound or a heuristic.
func Exact(in *Instance) (Tour, int, error) {
	return ExactContext(context.Background(), in)
}

// ExactContext is Exact bounded by ctx: the subset loop checks ctx at
// every checkpoint (checkpointMask+1 subsets), so cancellation unwinds
// promptly even inside one huge component. The DP has no usable
// partial answer — a canceled search returns ctx.Err() and the caller
// is expected to fall down the solver ladder. The
// tsp/heldkarp/states_expanded counter keeps its Held–Karp meaning: one
// per (subset, endpoint) pair resolved, n·2^(n−1) for a full solve.
func ExactContext(ctx context.Context, in *Instance) (Tour, int, error) {
	n := in.N()
	if n == 0 {
		return Tour{}, 0, nil
	}
	if n == 1 {
		return Tour{0}, 0, nil
	}
	if n > MaxExactCities {
		return nil, 0, fmt.Errorf("tsp: %d cities exceeds exact limit %d", n, MaxExactCities)
	}

	nbr := make([]uint32, n)
	for v := range nbr {
		for _, u := range in.Good.Neighbors(v) {
			nbr[v] |= 1 << u
		}
	}

	size := 1 << n
	rows := make([]uint32, size)
	var states int64
	for s := 1; s < size; s++ {
		if s&checkpointMask == 0 {
			if err := faultinject.Fire(SiteExactExpand); err != nil {
				cHeldKarpStates.Add(ctx, states)
				return nil, 0, err
			}
			if err := ctx.Err(); err != nil {
				cHeldKarpStates.Add(ctx, states)
				return nil, 0, err
			}
		}
		set := uint32(s)
		states += int64(bits.OnesCount32(set))
		if set&(set-1) == 0 {
			rows[s] = set // one city: no jumps, ends where it starts
			continue
		}
		best, ends := uint32(math.MaxUint32), uint32(0)
		for rest := set; rest != 0; rest &= rest - 1 {
			u := bits.TrailingZeros32(rest)
			prev := rows[set&^(1<<u)]
			j := prev >> jumpShift
			if prev&nbr[u] == 0 {
				j++
			}
			switch {
			case j < best:
				best, ends = j, 1<<u
			case j == best:
				ends |= 1 << u
			}
		}
		rows[s] = best<<jumpShift | ends
	}
	cHeldKarpStates.Add(ctx, states)

	// Walk back from the lowest optimal endpoint. The predecessor of v
	// is the lowest city of S = T∖{v} that Held–Karp's dp[S][·] + w(·,v)
	// is minimal at: a good neighbour in A0(S) if there is one, else any
	// city of A0(S) or a good neighbour outside it, all at j*(S)+1.
	full := uint32(size - 1)
	tour := make(Tour, n)
	set := full
	v := bits.TrailingZeros32(rows[full] & endsMask)
	for i := n - 1; ; i-- {
		tour[i] = v
		set &^= 1 << v
		if set == 0 {
			break
		}
		ends := rows[set] & endsMask
		p := ends & nbr[v]
		if p == 0 {
			p = ends | set&^ends&nbr[v]
		}
		v = bits.TrailingZeros32(p)
	}
	return tour, n - 1 + int(rows[full]>>jumpShift), nil
}

// BranchAndBound computes an optimal tour by depth-first search with
// pruning. It extends Exact's reach for sparse good graphs (where the
// jump lower bound prunes aggressively) but remains exponential in the
// worst case. maxNodes caps the search; 0 means unlimited. If the cap is
// hit it returns the best tour found plus ok=false.
func BranchAndBound(in *Instance, maxNodes int64) (Tour, int, bool) {
	return BranchAndBoundContext(context.Background(), in, maxNodes)
}

// BranchAndBoundContext is BranchAndBound bounded by ctx. The search is
// *anytime*: it seeds an incumbent with nearest neighbour before the
// first expansion, so when ctx expires (checked every checkpointMask+1
// node expansions, well inside one component) it returns the best tour
// found so far with exhausted=false instead of nothing — the caller gets
// a valid, possibly suboptimal tour and can tell optimality was not
// proven. The node cap reports the same way.
func BranchAndBoundContext(ctx context.Context, in *Instance, maxNodes int64) (Tour, int, bool) {
	n := in.N()
	if n == 0 {
		return Tour{}, 0, true
	}
	// Seed the incumbent with nearest neighbour so pruning bites early
	// and a canceled search still has a full tour to hand back.
	bestTour, bestCost := NearestNeighbor(in)
	used := make([]bool, n)
	path := make(Tour, 0, n)
	var nodes int64
	exhausted := true
	stopped := false // cancellation or injected abort; sticky like the cap

	// Remaining-deficit lower bound: each unvisited vertex still needs
	// good incidences; recompute cheaply from static degrees. We use the
	// simple bound remaining-steps >= #unvisited (each costs >= 1).
	var dfs func(v, cost int)
	dfs = func(v, cost int) {
		nodes++
		if stopped {
			return
		}
		if nodes&checkpointMask == 0 {
			if err := faultinject.Fire(SiteBnBExpand); err != nil {
				stopped, exhausted = true, false
				return
			}
			if ctx.Err() != nil {
				stopped, exhausted = true, false
				return
			}
		}
		if maxNodes > 0 && nodes > maxNodes {
			exhausted = false
			return
		}
		if len(path) == n {
			if cost < bestCost {
				bestCost = cost
				bestTour = append(bestTour[:0], path...)
			}
			return
		}
		if cost+(n-len(path)) >= bestCost {
			return // even all-good completion cannot beat the incumbent
		}
		// Try good continuations first; they lead to cheap tours sooner.
		for _, u := range in.Good.Neighbors(v) {
			if !used[u] {
				used[u] = true
				path = append(path, u)
				dfs(u, cost+1)
				path = path[:len(path)-1]
				used[u] = false
			}
		}
		if cost+1+(n-len(path)) >= bestCost {
			return // a jump plus all-good completion is already too costly
		}
		for u := 0; u < n; u++ {
			if !used[u] && !in.Good.HasEdge(v, u) {
				used[u] = true
				path = append(path, u)
				dfs(u, cost+2)
				path = path[:len(path)-1]
				used[u] = false
			}
		}
	}
	for s := 0; s < n && !stopped; s++ {
		used[s] = true
		path = append(path, s)
		dfs(s, 0)
		path = path[:0]
		used[s] = false
	}
	cBnBNodes.Add(ctx, nodes)
	return bestTour, bestCost, exhausted
}

// Solve returns an optimal tour using Exact when the instance fits and
// BranchAndBound (unbounded) otherwise.
func Solve(in *Instance) (Tour, int) {
	if in.N() <= MaxExactCities {
		t, c, err := Exact(in)
		if err == nil {
			return t, c
		}
	}
	t, c, _ := BranchAndBound(in, 0)
	return t, c
}
