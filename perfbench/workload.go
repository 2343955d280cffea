package main

// Request lists. Every workload is a fixed list of /v1/solve requests
// generated from the benchmark seed. The lists are stratified: each is a
// whole number of blocks, and every block holds the same request shapes
// (component sizes, relation sizes, families) in the same order, with
// seed-drawn graphs. The seed therefore changes which instances are
// solved but not how much work they take in total, so runs on different
// seeds are comparable.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"joinpebble/internal/graph"
	"joinpebble/internal/serve"
)

// Request is one entry of a request list.
type Request struct {
	Body serve.SolveRequest `json:"body"`
	// First is the list position of the request's first occurrence. It
	// is the request's own position unless the request repeats an
	// earlier one (mixed-repeat only).
	First int `json:"first"`
	// Class names the request's shape, e.g. "exact-m16" or
	// "containment-192".
	Class string `json:"class"`
}

// Workload describes one request mix and how the timed pass drives it.
type Workload struct {
	Name string
	// Clients is the number of closed-loop clients of the timed pass.
	Clients int
	// BlockSeconds is the measured wall time of one block of the timed
	// pass on a 2-core x86-64 host; a run of s seconds uses about
	// s/BlockSeconds blocks.
	BlockSeconds float64
	// generate builds the list of the given number of blocks.
	generate func(rng *rand.Rand, blocks int) []Request
	// warmup is the fixed, seed-independent request set sent before the
	// timed pass. Its instances are smaller than any timed one, or have
	// more components, so they never put a timed request's scheme into
	// the cache.
	warmup []serve.SolveRequest
}

// RepeatShare is the share of mixed-repeat requests that repeat an
// earlier request of the list.
const RepeatShare = 2.0 / 3

// repeatGap is the least distance, in list positions, between a repeat
// and the first occurrence it repeats. With two clients a request is
// only ever overtaken by the other client's requests, and 64 positions
// of them take far longer than any single solve, so the first
// occurrence has finished and filled the cache when its repeat arrives.
const repeatGap = 64

var workloads = []*Workload{
	{
		Name:         "exact-small",
		Clients:      1,
		BlockSeconds: 3.8,
		generate:     genExactSmall,
		warmup: []serve.SolveRequest{
			warmBipartite(1, 11), warmBipartite(2, 17, 16, 15, 14),
		},
	},
	{
		Name:         "approx-large",
		Clients:      1,
		BlockSeconds: 2.5,
		generate:     genApproxLarge,
		warmup: []serve.SolveRequest{
			{Family: "containment", Seed: 1, Left: 96, Right: 96},
			{Family: "spatial", Seed: 1, Left: 96, Right: 96, Skew: spatialClusters},
		},
	},
	{
		Name:         "mixed-repeat",
		Clients:      2,
		BlockSeconds: 1.0,
		generate:     genMixedRepeat,
		warmup: []serve.SolveRequest{
			{Family: "equijoin", Seed: 1, Left: 96, Right: 96, Skew: equijoinSkew},
			{Family: "containment", Seed: 1, Left: 48, Right: 48},
			{Family: "spatial", Seed: 1, Left: 48, Right: 48, Skew: spatialClusters},
		},
	},
}

const (
	// equijoinSkew is the zipf parameter of equijoin requests.
	equijoinSkew = 1.2
	// spatialClusters is the cluster count of spatial requests (sent in
	// the request's skew field).
	spatialClusters = 4
)

func lookupWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// blocksFor is the number of blocks a run of the given length uses.
func (w *Workload) blocksFor(seconds int) int {
	return max(1, int(float64(seconds)/w.BlockSeconds+0.5))
}

// List generates the workload's request list for a seed and run length.
func (w *Workload) List(seed int64, seconds int) []Request {
	return w.generate(rand.New(rand.NewSource(seed)), w.blocksFor(seconds))
}

// exactShapes is one exact-small block: the component edge counts of
// each request, in order. Held–Karp costs about 2^m·m² for an m-edge
// component, so a request's time is set by its largest component, from
// about 2ms at 12 edges to about 1s at 20. The block has 20 requests and
// is laid out so that the 10th and 18th fastest (the p50 and p90 ranks)
// are the middle ones of three 16-edge and three 19-edge requests. The
// block runs largest first: pebbled's peak RSS, set by the 20-edge
// table and whatever garbage the collector has not yet reclaimed, varied
// least between runs in that order.
var exactShapes = [][]int{
	{20, 15, 12},
	{19, 14, 12}, {19, 13}, {19},
	{18, 12}, {18, 14}, {18}, {17, 13}, {17},
	{16, 12, 12}, {16, 13}, {16},
	{15, 12, 12}, {15}, {14, 13}, {14}, {13, 12}, {13}, {12, 12}, {12},
}

func genExactSmall(rng *rand.Rand, blocks int) []Request {
	var list []Request
	for b := 0; b < blocks; b++ {
		for _, sizes := range exactShapes {
			list = append(list, Request{Body: bipartiteRequest(rng, sizes), Class: fmt.Sprintf("exact-m%d", sizes[0]), First: len(list)})
		}
	}
	return list
}

// bipartiteRequest builds a "bipartite" request whose join graph has
// one connected component per entry of sizes, each with that many edges
// and not complete bipartite, under a random vertex labeling.
func bipartiteRequest(rng *rand.Rand, sizes []int) serve.SolveRequest {
	var edges [][2]int
	left, right := 0, 0
	for _, m := range sizes {
		a, b := componentSides(rng, m)
		for _, e := range connectedBipartite(rng, a, b, m) {
			edges = append(edges, [2]int{left + e[0], right + e[1]})
		}
		left += a
		right += b
	}
	lperm, rperm := rng.Perm(left), rng.Perm(right)
	for i := range edges {
		edges[i] = [2]int{lperm[edges[i][0]], rperm[edges[i][1]]}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return serve.SolveRequest{Family: "bipartite", Left: left, Right: right, Edges: edges}
}

// componentSides draws side sizes a, b for a connected m-edge component
// that is far from complete bipartite: a spanning tree fits (a+b-1 ≤ m)
// and at most half the possible edges are present (a·b ≥ 2m). Sparse
// components keep random instances from being isomorphic to each other.
func componentSides(rng *rand.Rand, m int) (a, b int) {
	for {
		a, b = 3+rng.Intn(7), 3+rng.Intn(7)
		if a+b-1 <= m && a*b >= 2*m {
			return a, b
		}
	}
}

// connectedBipartite returns m distinct edges over a left and b right
// vertices that connect all of them: a random spanning tree, then
// random extra edges.
func connectedBipartite(rng *rand.Rand, a, b, m int) [][2]int {
	has := make(map[[2]int]bool, m)
	var edges [][2]int
	add := func(l, r int) {
		if e := [2]int{l, r}; !has[e] {
			has[e] = true
			edges = append(edges, e)
		}
	}
	// Attach each vertex, in random order, to a random vertex already
	// placed on the other side; start with one edge so both sides have
	// one.
	l0, r0 := rng.Intn(a), rng.Intn(b)
	add(l0, r0)
	inL, inR := []int{l0}, []int{r0}
	for _, v := range rng.Perm(a + b) {
		switch {
		case v < a && v != l0:
			add(v, inR[rng.Intn(len(inR))])
			inL = append(inL, v)
		case v >= a && v-a != r0:
			add(inL[rng.Intn(len(inL))], v-a)
			inR = append(inR, v-a)
		}
	}
	for len(edges) < m {
		add(rng.Intn(a), rng.Intn(b))
	}
	return edges
}

// warmBipartite is a fixed warm-up request with components of the given
// edge counts.
func warmBipartite(seed int64, sizes ...int) serve.SolveRequest {
	return bipartiteRequest(rand.New(rand.NewSource(seed)), sizes)
}

// slot is one generated request of a block: a family and relation size,
// and the edge count its largest connected component must have, within
// targetSlack. The approx rung's time grows steeply with that count
// (about m^2.9 today), and at a fixed relation size it varies by a
// factor of two or more between seeds — clustered spatial instances
// whose clusters happen to merge are slower still. Drawing instance
// seeds until the count is on target pins each slot's work, so every
// seed gives the same total work. A target of 0 accepts any instance.
type slot struct {
	class  string
	body   serve.SolveRequest
	target int
}

// targetSlack is the relative band around a slot's target.
const targetSlack = 0.08

func newSlot(family string, n int, target int) slot {
	body := serve.SolveRequest{Family: family, Left: n, Right: n}
	switch family {
	case "equijoin":
		body.Skew = equijoinSkew
	case "spatial":
		body.Skew = spatialClusters
	}
	return slot{class: fmt.Sprintf("%s-%d", family, n), body: body, target: target}
}

// The slots in use. Targets are the median largest-component edge
// count at that size over instance seeds 7919·k, k = 1..60.
var (
	slotEq160 = newSlot("equijoin", 160, 0)
	slotEq256 = newSlot("equijoin", 256, 0)
	slotC64   = newSlot("containment", 64, 221)
	slotC128  = newSlot("containment", 128, 788)
	slotC192  = newSlot("containment", 192, 1692)
	slotC256  = newSlot("containment", 256, 2931)
	slotS64   = newSlot("spatial", 64, 139)
	slotS128  = newSlot("spatial", 128, 484)
	slotS192  = newSlot("spatial", 192, 1027)
	slotS256  = newSlot("spatial", 256, 1841)
)

// draw returns the slot's request with a fresh instance seed whose
// instance meets the target.
func (s slot) draw(rng *rand.Rand, seeds freshSeeds) serve.SolveRequest {
	body := s.body
	for {
		body.Seed = seeds.next(rng)
		if s.target == 0 {
			return body
		}
		in, err := buildInstance(&body)
		if err != nil {
			panic(err) // the slot bodies are fixed and valid
		}
		if m := float64(largestComponentEdges(in.Graph())); math.Abs(m-float64(s.target)) <= targetSlack*float64(s.target) {
			return body
		}
	}
}

// largestComponentEdges is the edge count of g's largest component.
func largestComponentEdges(g *graph.Graph) int {
	comps := g.Components()
	comp := make([]int, g.N())
	for i, vs := range comps {
		for _, v := range vs {
			comp[v] = i
		}
	}
	count := make([]int, len(comps))
	best := 0
	for e := 0; e < g.M(); e++ {
		c := comp[g.EdgeAt(e).U]
		count[c]++
		best = max(best, count[c])
	}
	return best
}

// approxBlock is one approx-large block, in order. Sorted by solve time
// its 20 requests are four each of spatial-128, containment-128 and
// spatial-192, two each of containment-192 and spatial-256, and four of
// containment-256, so the p50 and p90 ranks fall in the middle of the
// spatial-192 and containment-256 requests.
var approxBlock = []slot{
	slotS128, slotC128, slotS192, slotC192, slotS256, slotC256,
	slotS128, slotC128, slotS192, slotC256,
	slotS128, slotC128, slotS192, slotC192, slotS256, slotC256,
	slotS128, slotC128, slotS192, slotC256,
}

func genApproxLarge(rng *rand.Rand, blocks int) []Request {
	seeds := freshSeeds{}
	var list []Request
	for b := 0; b < blocks; b++ {
		for _, s := range approxBlock {
			list = append(list, Request{Body: s.draw(rng, seeds), Class: s.class, First: len(list)})
		}
	}
	return list
}

// mixedFirsts is one mixed-repeat block of 20 distinct requests, in
// order, and mixedRepeats the classes of the block's 40 repeats: each
// repeat is of an earlier distinct request of its class. Sorted by
// latency, the block's 60 requests put the p50 rank in the middle of
// the ten containment-192 cache hits and the p90 rank in the middle of
// the six containment-192 misses.
var (
	mixedFirsts = []slot{
		slotC192, slotEq160, slotC64, slotC192, slotS64, slotC256, slotC192,
		slotEq256, slotS128, slotC192, slotC64, slotS256, slotC192, slotEq160,
		slotS64, slotC256, slotC192, slotEq256, slotC128, slotS192,
	}
	mixedRepeats = []slot{
		slotC64, slotC192, slotS64, slotEq160, slotC128, slotC192, slotS128, slotC256,
		slotC64, slotC192, slotS64, slotEq256, slotS256, slotC192, slotEq160, slotS192,
		slotC64, slotC192, slotS64, slotC128, slotC256, slotC192, slotS128, slotEq256,
		slotC64, slotC192, slotS64, slotEq160, slotS256, slotC192, slotC128, slotC256,
		slotS128, slotC192, slotEq160, slotS192, slotEq256, slotC256, slotS256, slotC192,
	}
)

// genMixedRepeat interleaves the blocks' distinct requests with repeats
// so that exactly RepeatShare of the list repeats an earlier request.
// The list opens with distinct requests; the remaining distinct ones are
// spread evenly over the rest, and each repeat draws uniformly from the
// distinct requests of its class at least repeatGap positions before it.
func genMixedRepeat(rng *rand.Rand, blocks int) []Request {
	seeds := freshSeeds{}
	var firsts, repeats []slot
	var bodies []serve.SolveRequest
	for b := 0; b < blocks; b++ {
		for _, s := range mixedFirsts {
			firsts = append(firsts, s)
			bodies = append(bodies, s.draw(rng, seeds))
		}
		repeats = append(repeats, mixedRepeats...)
	}
	u := len(firsts)
	n := u + len(repeats) // RepeatShare = 2/3
	gap := min(repeatGap, u/2)
	lead := min(u, gap+len(mixedFirsts)) // every class has a first occurrence gap positions back
	isFirst := make([]bool, n)
	for i := 0; i < lead; i++ {
		isFirst[i] = true
	}
	for k := 0; k < u-lead; k++ {
		isFirst[lead+k*(n-lead)/(u-lead)] = true
	}
	list := make([]Request, 0, n)
	byClass := map[string][]int{} // first-occurrence positions per class, ascending
	var all []int                 // all first-occurrence positions, ascending
	nf, nr := 0, 0
	for i := 0; i < n; i++ {
		if isFirst[i] {
			list = append(list, Request{Body: bodies[nf], Class: firsts[nf].class, First: i})
			byClass[firsts[nf].class] = append(byClass[firsts[nf].class], i)
			all = append(all, i)
			nf++
			continue
		}
		cands := atMost(byClass[repeats[nr].class], i-gap)
		nr++
		if len(cands) == 0 {
			// Only a list too short to open with every class gets here.
			cands = atMost(all, i-gap)
		}
		src := cands[rng.Intn(len(cands))]
		list = append(list, Request{Body: list[src].Body, Class: list[src].Class, First: src})
	}
	return list
}

// atMost is the prefix of the ascending positions that are at most limit.
func atMost(positions []int, limit int) []int {
	return positions[:sort.SearchInts(positions, limit+1)]
}

// freshSeeds draws instance seeds that are distinct within one list.
type freshSeeds map[int64]bool

func (s freshSeeds) next(rng *rand.Rand) int64 {
	for {
		if v := rng.Int63(); !s[v] {
			s[v] = true
			return v
		}
	}
}
