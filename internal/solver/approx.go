package solver

import (
	"context"
	"fmt"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

var (
	tPathPartition = obs.ScopedTimer("solver/phase/path_partition")
	cPathPieces    = obs.ScopedCounter("solver/approx/path_pieces")
)

// Approx125 implements the constructive proof of Theorem 3.1 / Lemma 3.1:
// for a connected component with m edges it finds a pebbling scheme of
// effective cost at most m + floor((m−1)/4) — the paper's 1.25m bound
// (exactly 1.25m−1 when 4 divides m). Per component it partitions the
// vertices of the (claw-free) line graph into vertex-disjoint paths, all
// but the last of size at least 4, by repeatedly:
//
//  1. building a DFS tree of the remaining line graph (every node has at
//     most two children, else three pairwise non-adjacent children would
//     form a claw with their parent);
//  2. eliminating "twins" (two leaf children of one parent) by the
//     re-hanging argument in the paper: claw-freeness forces one twin to
//     be adjacent to the grandparent, so the subtree can be re-hung into
//     a chain;
//  3. stripping the subtree rooted at the lowest node with >= 4
//     descendants — after twin elimination that subtree is a path — and
//     observing that the rest of the tree still spans the remainder, so
//     the remaining line graph stays connected.
//
// The concatenated paths form a TSP tour with at most one jump per
// stripped piece, giving J <= floor((m−1)/4). The implementation
// recomputes the DFS tree after each strip (O(m·|E(L)|) overall) instead
// of the paper's linear-time bookkeeping; the produced schemes are the
// same quality.
type Approx125 struct {
	// SkipTwinElimination disables step 2 — an ablation knob for the E19
	// experiment. Without twin elimination the stripped subtree need not
	// be a path and the construction legitimately fails on some inputs
	// (Solve returns an error); never set it outside experiments.
	SkipTwinElimination bool
}

// The two display names, as constants so they can double as root span
// names (the obsnames analyzer requires constant span names).
const (
	nameApprox       = "approx-1.25"
	nameApproxNoTwin = "approx-1.25(no-twin-elim)"
)

// Name implements Solver.
func (a Approx125) Name() string {
	if a.SkipTwinElimination {
		return nameApproxNoTwin
	}
	return nameApprox
}

// Solve implements Solver.
func (a Approx125) Solve(g *graph.Graph) (core.Scheme, error) {
	return a.SolveContext(context.Background(), g)
}

// SolveContext implements ContextSolver.
func (a Approx125) SolveContext(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	fn := func(ctx context.Context, cg *graph.Graph, sp *obs.Span) ([]int, error) {
		return approxComponentOrder(ctx, cg, sp, a.SkipTwinElimination)
	}
	// Two literal call sites so the span name stays a compile-time
	// constant either way.
	if a.SkipTwinElimination {
		return solvePerComponent(ctx, g, nameApproxNoTwin, fn)
	}
	return solvePerComponent(ctx, g, nameApprox, fn)
}

func approxComponentOrder(ctx context.Context, cg *graph.Graph, sp *obs.Span, skipTwins bool) ([]int, error) {
	lgSpan := sp.Start("line_graph")
	lg := graph.NewLineGraphView(cg)
	lgSpan.End()
	partStart := obs.Now()
	partSpan := sp.Start("path_partition")
	pieces, err := pathPartition(lg, skipTwins)
	partSpan.End()
	tPathPartition.Observe(ctx, obs.Since(partStart))
	if err != nil {
		return nil, err
	}
	cPathPieces.Add(ctx, int64(len(pieces)))
	partSpan.SetInt("pieces", int64(len(pieces)))
	var order []int
	for _, p := range pieces {
		order = append(order, p...)
	}
	// Bound check: the construction promises all but the final piece have
	// >= 4 vertices. Surface a violation as an error rather than a silent
	// quality regression.
	for i, p := range pieces {
		if len(p) < 4 && i != len(pieces)-1 {
			return nil, fmt.Errorf("solver: internal piece %d has %d < 4 vertices", i, len(p))
		}
	}
	return order, nil
}

// pathPartition splits the vertices of a connected claw-free graph lg
// into vertex-disjoint paths, all of size >= 4 except possibly the last.
//
// All working state — parent links, child arrays, subtree sizes, the
// alive set, DFS frames, and neighbor scratch — lives in one
// approxArena allocated here and reused across every spanning-tree
// rebuild, so the ~m/4 strip iterations allocate only the output
// pieces themselves.
func pathPartition(lg graph.Adjacency, skipTwins bool) ([][]int, error) {
	n := lg.N()
	ar := newApproxArena(n)
	aliveCount := n
	for v := 0; v < n; v++ {
		ar.alive[v] = true
	}
	t := spanningTree{lg: lg, ar: ar}
	var pieces [][]int
	// Each DFS is rooted at the lowest alive vertex. Vertices only die,
	// so the cursor only moves forward.
	root := 0
	for aliveCount > 0 {
		for root < n && !ar.alive[root] {
			root++
		}
		if root == n {
			return nil, fmt.Errorf("solver: alive count %d but no alive vertex", aliveCount)
		}
		if aliveCount < 4 {
			path, ok := hamPathSmall(lg, ar.alive, aliveCount, root)
			if !ok {
				return nil, fmt.Errorf("solver: connected remainder of size %d has no Hamiltonian path", aliveCount)
			}
			pieces = append(pieces, path)
			break
		}
		if err := t.rebuild(root); err != nil {
			return nil, err
		}
		if !skipTwins {
			if err := t.eliminateTwins(); err != nil {
				return nil, err
			}
		}
		r := t.lowestBigSubtree(4)
		path, err := t.subtreeAsPath(r)
		if err != nil {
			return nil, err
		}
		for _, v := range path {
			ar.alive[v] = false
			aliveCount--
		}
		pieces = append(pieces, path)
	}
	return pieces, nil
}

// dfsFrame is one spanning-tree DFS stack entry: vertex v with its
// neighbor span [base, end) in the arena's nb scratch, next being the
// scan cursor within the span.
type dfsFrame struct{ v, base, end, next int }

// approxArena is the per-component scratch for pathPartition. Every
// slice is sized to the component's line-graph order n once and reused
// across all spanning-tree rebuilds, twin eliminations, and subtree-size
// passes of that component; nothing in it escapes a partition call.
//
// Child lists exploit the claw-free DFS-tree invariant that no node ever
// has more than two children (three children are pairwise non-adjacent
// in a DFS tree and would form a claw with their parent; twin
// elimination's re-hangings only move children to leaves, preserving the
// bound), so they are fixed [2]int32 slots plus a fill count instead of
// per-node slices.
type approxArena struct {
	parent []int      // -1 root, -2 not in tree
	kids   [][2]int32 // child slots, in insertion order
	nkid   []uint8    // filled child slots per node
	size   []int      // subtree sizes, valid after subtreeSizes
	order  []int      // preorder scratch for subtreeSizes
	stack  []dfsFrame // DFS frames for rebuild
	alive  []bool
	nb     []int // DFS neighbor scratch, stack-disciplined spans
}

func newApproxArena(n int) *approxArena {
	return &approxArena{
		parent: make([]int, n),
		kids:   make([][2]int32, n),
		nkid:   make([]uint8, n),
		size:   make([]int, n),
		order:  make([]int, n),
		stack:  make([]dfsFrame, n),
		alive:  make([]bool, n),
	}
}

// spanningTree is a rooted spanning tree over the alive vertices of lg,
// stored in the arena and mutable by the twin-elimination re-hanging.
type spanningTree struct {
	lg   graph.Adjacency
	root int
	ar   *approxArena
}

// rebuild runs DFS over the arena's alive vertices from root, replacing
// the previous tree. Neighborhoods are enumerated through the Adjacency
// interface into the arena's nb scratch, which follows the DFS stack
// discipline (a frame's span is truncated on pop), so walking an
// implicit line-graph view allocates no per-frame slices. The only
// possible allocation is nb growth inside AppendNeighbors, which stops
// once nb reaches the component's maximum stacked-neighborhood size.
func (t *spanningTree) rebuild(root int) error {
	ar := t.ar
	t.root = root
	for i := range ar.parent {
		ar.parent[i] = -2
		ar.nkid[i] = 0
	}
	ar.parent[root] = -1
	ar.nb = t.lg.AppendNeighbors(ar.nb[:0], root)
	ar.stack[0] = dfsFrame{v: root, base: 0, end: len(ar.nb), next: 0}
	sp := 1
	for sp > 0 {
		f := &ar.stack[sp-1]
		advanced := false
		for f.next < f.end {
			w := ar.nb[f.next]
			f.next++
			if ar.alive[w] && ar.parent[w] == -2 {
				ar.parent[w] = f.v
				if !t.addChild(f.v, w) {
					return fmt.Errorf("solver: node %d has > 2 children in claw-free DFS tree", f.v)
				}
				base := len(ar.nb)
				ar.nb = t.lg.AppendNeighbors(ar.nb, w)
				ar.stack[sp] = dfsFrame{v: w, base: base, end: len(ar.nb), next: base}
				sp++
				advanced = true
				break
			}
		}
		if !advanced {
			ar.nb = ar.nb[:f.base]
			sp--
		}
	}
	return nil
}

func (t *spanningTree) inTree(v int) bool { return t.ar.parent[v] != -2 }
func (t *spanningTree) isLeaf(v int) bool { return t.inTree(v) && t.ar.nkid[v] == 0 }

// addChild appends c to p's child slots, reporting false on overflow
// (impossible while lg is claw-free — see approxArena).
//
//joinpebble:hotpath
func (t *spanningTree) addChild(p, c int) bool {
	ar := t.ar
	if ar.nkid[p] >= 2 {
		return false
	}
	ar.kids[p][ar.nkid[p]] = int32(c)
	ar.nkid[p]++
	return true
}

// removeChild detaches c from p's child slots, preserving slot order.
//
//joinpebble:hotpath
func (t *spanningTree) removeChild(p, c int) {
	ar := t.ar
	switch {
	case ar.nkid[p] >= 1 && ar.kids[p][0] == int32(c):
		ar.kids[p][0] = ar.kids[p][1]
		ar.nkid[p]--
	case ar.nkid[p] == 2 && ar.kids[p][1] == int32(c):
		ar.nkid[p]--
	default:
		panic("solver: removeChild: not a child")
	}
}

// eliminateTwins repeatedly resolves pairs of leaf siblings. Each
// resolution re-hangs one twin (or the parent) along an edge of lg whose
// existence claw-freeness guarantees, strictly decreasing the number of
// parents with two leaf children; the loop terminates in O(n) steps.
func (t *spanningTree) eliminateTwins() error {
	for {
		p, l1, l2, found := t.findTwins()
		if !found {
			return nil
		}
		switch {
		case t.lg.HasEdge(l1, l2):
			// Chain the twins: p — l1 — l2. The addChild targets are a
			// leaf (l1) and nodes that just lost a child, so the two-slot
			// bound cannot overflow here or in the re-hang below.
			t.removeChild(p, l2)
			t.ar.parent[l2] = l1
			t.addChild(l1, l2)
		default:
			g := t.ar.parent[p]
			if g < 0 {
				// p is the root with two non-adjacent leaf children and at
				// most two children total: the tree would have 3 vertices,
				// but callers only build trees over >= 4.
				return fmt.Errorf("solver: twin elimination hit root twins on a tree of size >= 4")
			}
			// Claw-freeness at p: {l1, l2, g} ⊆ N(p) cannot be pairwise
			// non-adjacent; l1-l2 was just ruled out, so one twin sees g.
			if !t.lg.HasEdge(l1, g) {
				l1, l2 = l2, l1
			}
			if !t.lg.HasEdge(l1, g) {
				return fmt.Errorf("solver: claw-free invariant violated at parent %d", p)
			}
			// Re-hang: g — l1 — p — l2 (the paper's Figure-free rewiring:
			// remove tree edge (g,p), add (g,l1)).
			t.removeChild(g, p)
			t.removeChild(p, l1)
			t.ar.parent[l1] = g
			t.addChild(g, l1)
			t.ar.parent[p] = l1
			t.addChild(l1, p)
		}
	}
}

// findTwins returns a parent with two leaf children, if any. Children
// are inspected in slot order, so the pair returned is the same pair the
// child-list representation produced.
//
//joinpebble:hotpath
func (t *spanningTree) findTwins() (p, l1, l2 int, found bool) {
	ar := t.ar
	for v := 0; v < len(ar.parent); v++ {
		if ar.parent[v] == -2 {
			continue
		}
		first := -1
		for c := 0; c < int(ar.nkid[v]); c++ {
			w := int(ar.kids[v][c])
			if ar.nkid[w] != 0 { // children are in the tree, so leaf ⇔ no kids
				continue
			}
			if first < 0 {
				first = w
			} else {
				return v, first, w, true
			}
		}
	}
	return 0, 0, 0, false
}

// subtreeSizes fills the arena's size table over the current tree and
// returns it. The tree can be deep (line graphs of paths), so it
// accumulates over an explicit preorder — written into the arena's
// order scratch by index — instead of recursing.
//
//joinpebble:hotpath
func (t *spanningTree) subtreeSizes() []int {
	ar := t.ar
	size := ar.size
	for i := range size {
		size[i] = 0
	}
	order := ar.order
	order[0] = t.root
	cnt := 1
	for i := 0; i < cnt; i++ {
		v := order[i]
		for c := 0; c < int(ar.nkid[v]); c++ {
			order[cnt] = int(ar.kids[v][c])
			cnt++
		}
	}
	for i := cnt - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if p := ar.parent[v]; p >= 0 {
			size[p] += size[v]
		}
	}
	return size
}

// lowestBigSubtree returns a node with subtree size >= k all of whose
// children have subtree size < k. The root always qualifies as a
// fallback, so one exists whenever the tree has >= k vertices. The size
// table it computes stays valid in the arena until the next rebuild or
// re-hang; subtreeAsPath reads it to size its output exactly.
//
//joinpebble:hotpath
func (t *spanningTree) lowestBigSubtree(k int) int {
	size := t.subtreeSizes()
	ar := t.ar
	v := t.root
	for {
		descended := false
		for c := 0; c < int(ar.nkid[v]); c++ {
			if w := int(ar.kids[v][c]); size[w] >= k {
				v = w
				descended = true
				break
			}
		}
		if !descended {
			return v
		}
	}
}

// subtreeAsPath linearizes the subtree rooted at r, which after twin
// elimination is a path-shaped tree: r has at most two children and each
// child subtree is a downward chain (a 3-node chain is the largest
// possible, since r is the lowest node with >= 4 descendants). The
// returned vertex sequence is a path in lg. It is the output of a strip,
// so it is the one slice the partition loop allocates per iteration —
// sized exactly from the arena's still-valid subtree-size table.
func (t *spanningTree) subtreeAsPath(r int) ([]int, error) {
	ar := t.ar
	out := make([]int, 0, ar.size[r])
	// chain walks the downward chain from start, appending to out; the
	// exact capacity above means the appends never reallocate.
	chain := func(start int) ([]int, error) {
		v := start
		for {
			out = append(out, v)
			switch ar.nkid[v] {
			case 0:
				return out, nil
			case 1:
				v = int(ar.kids[v][0])
			default:
				return nil, fmt.Errorf("solver: child subtree at %d is not a chain", v)
			}
		}
	}
	switch ar.nkid[r] {
	case 0:
		return append(out, r), nil
	case 1:
		out = append(out, r)
		return chain(int(ar.kids[r][0]))
	default:
		var err error
		out, err = chain(int(ar.kids[r][0]))
		if err != nil {
			return nil, err
		}
		// Reverse a, then r, then b: leaf_a ... child_a r child_b ... leaf_b.
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		out = append(out, r)
		return chain(int(ar.kids[r][1]))
	}
}

// hamPathSmall finds a Hamiltonian path over the <= 3 alive vertices
// (any connected graph on at most 3 vertices has one), starting the
// search at root's component.
func hamPathSmall(lg graph.Adjacency, alive []bool, count, root int) ([]int, bool) {
	var verts []int
	for v := 0; v < lg.N(); v++ {
		if alive[v] {
			verts = append(verts, v)
		}
	}
	if len(verts) != count {
		return nil, false
	}
	switch count {
	case 0:
		return nil, true
	case 1:
		return verts, true
	}
	// Brute force over the tiny vertex set.
	perm := make([]int, len(verts))
	copy(perm, verts)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(perm) {
			return true
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if lg.HasEdge(perm[k-1], perm[k]) && rec(k+1) {
				return true
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return false
	}
	for i := 0; i < len(perm); i++ {
		perm[0], perm[i] = perm[i], perm[0]
		if rec(1) {
			return perm, true
		}
		perm[0], perm[i] = perm[i], perm[0]
	}
	return nil, false
}

// ApproxCostBound returns the Theorem 3.1 guarantee for g:
// sum over components of m_i + floor((m_i − 1)/4), plus β₀ startups.
func ApproxCostBound(g *graph.Graph) int {
	bound := 0
	for _, m := range componentEdgeCounts(g) {
		if m > 0 {
			bound += m + (m-1)/4 + 1
		}
	}
	return bound
}

// componentEdgeCounts returns the edge count of each component in one
// pass over the edge list.
func componentEdgeCounts(g *graph.Graph) []int {
	comps := g.Components()
	compID := make([]int, g.N())
	for ci, comp := range comps {
		for _, v := range comp {
			compID[v] = ci
		}
	}
	counts := make([]int, len(comps))
	for _, e := range g.Edges() {
		counts[compID[e.U]]++
	}
	return counts
}
