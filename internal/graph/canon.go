package graph

// Canonical labeling and fingerprinting over the frozen CSR index.
//
// The scheme cache keys on graph isomorphism classes: a pebbling scheme
// depends only on the join graph's shape, so two requests with the same
// shape under different vertex numberings must hash to the same key.
// Canonicalize computes that key in three passes:
//
//  1. iterated WL-style color refinement to a fixed point — initial
//     colors are (degree, component order, component size) ranks, each
//     round replaces a vertex's color with a hash of (own color, sorted
//     neighbor colors) and re-ranks, stopping when the number of
//     distinct colors stops growing;
//  2. a deterministic canonical relabeling: a greedy frontier order
//     that always assigns the minimum of (on-frontier, color,
//     assigned-neighborhood hash, id) next. A vertex is on the frontier
//     once a neighbor has a canonical id, and the hash term is an
//     order-independent combination of those assigned ids — so every
//     choice propagates into the keys of later candidates, and the
//     frontier rule keeps the order contiguous within a component, which
//     confines raw id tie-breaks to positions where the tied vertices
//     are interchangeable for the families the repo generates (spiders,
//     complete bipartite graphs, cycles, paths, matchings, and their
//     line graphs — see the package test corpus);
//  3. a 128-bit hash of the sorted canonical edge list (plus n and m).
//
// Soundness is unconditional: equal canonical edge lists exhibit an
// isomorphism, so non-isomorphic graphs can only collide by hash
// accident (~2^-128), and the engine re-verifies every cached scheme
// against the simulator anyway. Completeness (isomorphic graphs always
// colliding) holds when every raw id tie-break lands on vertices that
// are automorphic given the assigned prefix — guaranteed for the
// structured families above and pinned by the permutation-invariance
// fuzz test. An arbitrary graph with WL-equivalent but non-automorphic
// vertices (rare outside adversarial constructions) may fingerprint
// differently under relabeling, which costs a cache miss, never a wrong
// hit.
//
// The refinement and hashing kernels carry the //joinpebble:hotpath
// contract and run entirely on CanonScratch buffers, in the arena style
// of the solver's path partition: one scratch reused across calls means
// the steady-state per-fingerprint allocation is the returned labeling
// alone.

import (
	"fmt"
	"slices"
)

// Fingerprint is a 128-bit canonical graph fingerprint: equal for
// isomorphic graphs of the generated families, distinct for
// non-isomorphic graphs up to hash collision.
type Fingerprint struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x%016x", f.Hi, f.Lo)
}

// Mix folds extra words — a family kind hash, guarantee bits — into the
// fingerprint, so structurally identical graphs presented under
// different predicate families key separately. Callers pass literal
// word lists, which escape analysis keeps on the stack.
//
//joinpebble:hotpath
func (f Fingerprint) Mix(words ...uint64) Fingerprint {
	for _, w := range words {
		f.Hi = mix64(f.Hi, w)
		f.Lo = mix64(f.Lo, w^0xA5A5A5A5A5A5A5A5)
	}
	return f
}

// CanonScratch holds the reusable buffers Canonicalize works in. One
// scratch serves any number of sequential calls on graphs of any size;
// buffers grow monotonically and are never returned to the allocator.
// Not safe for concurrent use — pool scratches per goroutine.
type CanonScratch struct {
	color  []uint32   // current color (dense rank) per vertex
	sig    []uint64   // signature hash per vertex, input to re-ranking
	sorted []uint64   // sort/dedupe buffer for rank assignment
	queue  []int32    // component-labeling BFS queue
	perm   []int32    // vertex -> canonical id
	comp   []int32    // vertex -> component id
	cinfo  []uint64   // per-component (order, size) packed
	nbr    []uint64   // per-vertex neighbor color buffer (max degree)
	ekeys  []uint64   // canonical edge keys
	sigAdj []uint64   // assigned-neighborhood hash per unassigned vertex
	ver    []uint32   // sigAdj version per vertex, for lazy heap deletion
	heap   []canonEnt // candidate min-heap with stale entries
}

// canonEnt is one candidate in the greedy-order heap. Entries are
// immutable; a vertex whose key changed is re-pushed with a bumped
// version and stale entries are dropped at pop time.
type canonEnt struct {
	color uint32
	sig   uint64
	id    int32
	ver   uint32
}

// less orders candidates by (color, assigned-neighborhood hash, id) —
// every component isomorphism-invariant except the final id, which only
// breaks ties between vertices the first two could not separate.
//
//joinpebble:hotpath
func (e canonEnt) less(o canonEnt) bool {
	// Frontier first: a vertex adjacent to the assigned prefix
	// (ver > 0) always beats an untouched one, keeping the order
	// contiguous within a component. Without this, a color class whose
	// members are still untouched could be popped after earlier
	// assignments broke its symmetry, and the id tie-break below would
	// become label-dependent. Untouched ties then only arise when the
	// frontier is empty — at the start of a fresh component, where the
	// candidates really are interchangeable.
	et, ot := e.ver > 0, o.ver > 0
	if et != ot {
		return et
	}
	if e.color != o.color {
		return e.color < o.color
	}
	if e.sig != o.sig {
		return e.sig < o.sig
	}
	return e.id < o.id
}

// NewCanonScratch returns an empty scratch; buffers are sized on first
// use.
func NewCanonScratch() *CanonScratch { return &CanonScratch{} }

// grow sizes every buffer for an n-vertex, m-edge graph with maximum
// degree maxDeg.
func (sc *CanonScratch) grow(n, m, maxDeg int) {
	if cap(sc.color) < n {
		sc.color = make([]uint32, n)
		sc.sig = make([]uint64, n)
		sc.sorted = make([]uint64, n)
		sc.queue = make([]int32, n)
		sc.perm = make([]int32, n)
		sc.comp = make([]int32, n)
		sc.cinfo = make([]uint64, n)
		sc.sigAdj = make([]uint64, n)
		sc.ver = make([]uint32, n)
	}
	// Heap peak: one initial entry per vertex plus at most one re-push
	// per edge (a push happens only when an assigned endpoint touches a
	// still-unassigned one).
	if cap(sc.heap) < n+m+1 {
		sc.heap = make([]canonEnt, n+m+1)
	}
	if cap(sc.nbr) < maxDeg {
		sc.nbr = make([]uint64, maxDeg)
	}
	if cap(sc.ekeys) < m {
		sc.ekeys = make([]uint64, m)
	}
	sc.color = sc.color[:n]
	sc.sig = sc.sig[:n]
	sc.sorted = sc.sorted[:n]
	sc.queue = sc.queue[:n]
	sc.perm = sc.perm[:n]
	sc.comp = sc.comp[:n]
	sc.cinfo = sc.cinfo[:n]
	sc.sigAdj = sc.sigAdj[:n]
	sc.ver = sc.ver[:n]
	sc.nbr = sc.nbr[:maxDeg]
	sc.ekeys = sc.ekeys[:m]
}

// Canonicalize computes the canonical labeling of g — perm[v] is the
// canonical id of vertex v — and the structural Fingerprint of the
// canonical edge list. The returned slice is freshly allocated (callers
// keep it to translate cached schemes); everything else runs in sc.
// Passing a nil scratch allocates a private one.
func Canonicalize(g *Graph, sc *CanonScratch) ([]int32, Fingerprint) {
	if sc == nil {
		sc = NewCanonScratch()
	}
	n, m := g.N(), g.M()
	if n == 0 {
		return nil, Fingerprint{Hi: mix64(canonSeedHi, 0), Lo: mix64(canonSeedLo, 0)}
	}
	c := g.ensureCSR()
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := c.start[v+1] - c.start[v]; d > maxDeg {
			maxDeg = d
		}
	}
	sc.grow(n, m, maxDeg)

	// Initial colors: (degree, component order, component size) ranks.
	// The component terms separate same-degree vertices of structurally
	// different components up front (C4 ⊔ C6 is all degree 2), so the
	// BFS below never has to choose a root across non-isomorphic
	// components.
	labelComponents(c, n, sc)
	for v := 0; v < n; v++ {
		h := mix64(canonSeedHi, uint64(c.start[v+1]-c.start[v]))
		sc.sig[v] = mix64(h, sc.cinfo[sc.comp[v]])
	}
	distinct := rankColors(sc, n)

	// Iterated refinement to a fixed point: the distinct-color count is
	// strictly monotone until it stabilizes, so this runs at most n
	// rounds (2-3 in practice for the generated families).
	for {
		refinePass(c, sc, n)
		next := rankColors(sc, n)
		if next == distinct {
			break
		}
		distinct = next
	}

	canonicalOrder(c, sc, n)
	fp := edgeListFingerprint(g, sc, n, m)
	perm := make([]int32, n)
	copy(perm, sc.perm)
	return perm, fp
}

// CanonicalFingerprint is Canonicalize without keeping the labeling.
func CanonicalFingerprint(g *Graph, sc *CanonScratch) Fingerprint {
	_, fp := Canonicalize(g, sc)
	return fp
}

const (
	canonSeedHi = 0x9E3779B97F4A7C15
	canonSeedLo = 0xC2B2AE3D27D4EB4F
)

// mix64 folds x into the running hash h (splitmix64 finalizer).
//
//joinpebble:hotpath
func mix64(h, x uint64) uint64 {
	h ^= x + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return h
}

// labelComponents fills sc.comp with a component id per vertex and
// sc.cinfo[ci] with a hash of the component's (order, size), returning
// the component count. Plain BFS on the scratch queue.
//
//joinpebble:hotpath
func labelComponents(c *csr, n int, sc *CanonScratch) int {
	for v := 0; v < n; v++ {
		sc.comp[v] = -1
	}
	nc := 0
	for root := 0; root < n; root++ {
		if sc.comp[root] >= 0 {
			continue
		}
		ci := int32(nc)
		nc++
		order, slots := 0, 0
		head, tail := 0, 0
		sc.comp[root] = ci
		sc.queue[tail] = int32(root)
		tail++
		for head < tail {
			u := int(sc.queue[head])
			head++
			order++
			slots += c.start[u+1] - c.start[u]
			for i := c.start[u]; i < c.start[u+1]; i++ {
				w := c.vert[i]
				if sc.comp[w] < 0 {
					sc.comp[w] = ci
					sc.queue[tail] = int32(w)
					tail++
				}
			}
		}
		// slots double-counts edges (one slot per endpoint).
		sc.cinfo[ci] = mix64(mix64(canonSeedLo, uint64(order)), uint64(slots/2))
	}
	return nc
}

// refinePass computes each vertex's next signature from its current
// color and the sorted multiset of its neighbors' colors.
//
//joinpebble:hotpath
func refinePass(c *csr, sc *CanonScratch, n int) {
	for v := 0; v < n; v++ {
		lo, hi := c.start[v], c.start[v+1]
		k := 0
		for i := lo; i < hi; i++ {
			sc.nbr[k] = uint64(sc.color[c.vert[i]])
			k++
		}
		sortU64(sc.nbr[:k])
		h := mix64(canonSeedHi, uint64(sc.color[v]))
		for i := 0; i < k; i++ {
			h = mix64(h, sc.nbr[i])
		}
		sc.sig[v] = h
	}
}

// rankColors replaces sc.sig's hash values with dense ranks in sc.color
// and returns the number of distinct values. Ranks are assigned by
// sorted hash order, which is label-independent, so the refinement
// stays isomorphism-invariant.
//
//joinpebble:hotpath
func rankColors(sc *CanonScratch, n int) int {
	copy(sc.sorted[:n], sc.sig[:n])
	slices.Sort(sc.sorted[:n])
	k := 0
	for i := 0; i < n; i++ {
		if i == 0 || sc.sorted[i] != sc.sorted[k-1] {
			sc.sorted[k] = sc.sorted[i]
			k++
		}
	}
	ranks := sc.sorted[:k]
	for v := 0; v < n; v++ {
		lo, hi := 0, k
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ranks[mid] < sc.sig[v] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sc.color[v] = uint32(lo)
	}
	return k
}

// sortU64 sorts small spans by insertion (neighbor lists are short for
// most families) and defers long ones to the generic sort.
//
//joinpebble:hotpath
func sortU64(a []uint64) {
	if len(a) > 24 {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// canonicalOrder assigns canonical ids in sc.perm, one vertex at a
// time: always the minimum (color, assigned-neighborhood hash, id)
// candidate next. Assigning a vertex folds its fresh canonical id into
// every unassigned neighbor's hash (xor of per-id mixes, so the value
// is independent of assignment order within the set) and re-pushes the
// neighbor; the heap drops stale versions at pop time. Ties that reach
// the final id component are between vertices with identical color and
// identical assigned neighborhoods — automorphic in the generated
// families, so the id choice cannot change the canonical edge list.
//
//joinpebble:hotpath
func canonicalOrder(c *csr, sc *CanonScratch, n int) {
	hn := 0
	for v := 0; v < n; v++ {
		sc.perm[v] = -1
		sc.sigAdj[v] = 0
		sc.ver[v] = 0
		hn = heapPush(sc.heap, hn, canonEnt{color: sc.color[v], id: int32(v)})
	}
	next := int32(0)
	for hn > 0 {
		var e canonEnt
		e, hn = heapPop(sc.heap, hn)
		v := int(e.id)
		if sc.perm[v] >= 0 || sc.ver[v] != e.ver {
			continue
		}
		sc.perm[v] = next
		id := uint64(next)
		next++
		for i := c.start[v]; i < c.start[v+1]; i++ {
			w := c.vert[i]
			if sc.perm[w] >= 0 {
				continue
			}
			sc.sigAdj[w] ^= mix64(canonSeedLo, id+1)
			sc.ver[w]++
			hn = heapPush(sc.heap, hn, canonEnt{color: sc.color[w], sig: sc.sigAdj[w], id: int32(w), ver: sc.ver[w]})
		}
	}
}

// heapPush inserts e into the first hn slots of h (a binary min-heap
// under canonEnt.less) and returns the new length. Capacity is
// preallocated by grow; no append.
//
//joinpebble:hotpath
func heapPush(h []canonEnt, hn int, e canonEnt) int {
	i := hn
	h[i] = e
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return hn + 1
}

// heapPop removes and returns the minimum entry, with the new length.
//
//joinpebble:hotpath
func heapPop(h []canonEnt, hn int) (canonEnt, int) {
	top := h[0]
	hn--
	h[0] = h[hn]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < hn && h[l].less(h[s]) {
			s = l
		}
		if r < hn && h[r].less(h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, hn
}

// edgeListFingerprint hashes the sorted canonical edge list plus the
// graph's order and size into 128 bits.
//
//joinpebble:hotpath
func edgeListFingerprint(g *Graph, sc *CanonScratch, n, m int) Fingerprint {
	for i := 0; i < m; i++ {
		e := g.edges[i]
		a, b := sc.perm[e.U], sc.perm[e.V]
		if a > b {
			a, b = b, a
		}
		sc.ekeys[i] = uint64(a)<<32 | uint64(b)
	}
	slices.Sort(sc.ekeys[:m])
	hi := mix64(canonSeedHi, uint64(n))
	lo := mix64(canonSeedLo, uint64(n))
	hi = mix64(hi, uint64(m))
	lo = mix64(lo, uint64(m))
	for i := 0; i < m; i++ {
		hi = mix64(hi, sc.ekeys[i])
		lo = mix64(lo, sc.ekeys[i]^0x5BF0_3635_DEAD_BEEF)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}
