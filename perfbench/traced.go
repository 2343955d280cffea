package main

// The traced pass: the request list runs in-process, one request after
// another, through the layers pebbled's planner calls, in the planner's
// order: build → plan → fingerprint → cache get → planned solver →
// verify → cache insert. Every call is wrapped in a span recorded here,
// in the benchmark; nothing inside the program is instrumented.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/graph"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/solver"
)

// Span names. The part before the dot is the layer.
const (
	spanRequest     = "request"
	spanBuild       = "engine.build"
	spanPlan        = "engine.plan"
	spanAssemble    = "engine.assemble"
	spanFingerprint = "graph.fingerprint"
	spanCacheGet    = "schemecache.get"
	spanCacheInsert = "schemecache.insert"
	spanApprox      = "solver.approx"
	spanPerfect     = "solver.perfect"
	spanExact       = "tsp.exact"
	spanVerify      = "core.verify"
)

// solveSpan names the span of a planned solver's solve by the layer
// that does its work.
func solveSpan(name string) string {
	switch name {
	case "exact":
		return spanExact
	case "approx-1.25":
		return spanApprox
	case "equijoin":
		return spanPerfect
	}
	return "solver." + name
}

// span is one timed call. Times are nanoseconds since the pass began.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Class is the request's class, on root spans only.
	Class string `json:"class,omitempty"`
}

type tracer struct {
	t0    time.Time
	req   int
	spans []span
}

func (t *tracer) start(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// tracedRequest is what the traced pass learned about one request.
type tracedRequest struct {
	cost, effective, lower, upper, components int
	hit                                       bool
	root                                      int // root span id
}

// tracedPass is the result of a traced pass.
type tracedPass struct {
	reqs  []tracedRequest
	spans []span
	wall  time.Duration
}

// runTraced runs list through the layers with a fresh cache sized like
// pebbled's default.
func runTraced(ctx context.Context, list []Request) (*tracedPass, error) {
	size, err := cmdutil.ParseByteSize(cmdutil.DefaultCacheSize)
	if err != nil {
		return nil, err
	}
	cache := schemecache.New(size, 0)
	planner := &engine.Planner{}
	canon := graph.NewCanonScratch()
	tr := &tracer{spans: make([]span, 0, 10*len(list))}
	out := &tracedPass{reqs: make([]tracedRequest, len(list))}
	tr.t0 = time.Now()
	for i := range list {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr.req = i
		r, err := traceOne(ctx, tr, planner, cache, canon, &list[i])
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		out.reqs[i] = r
	}
	out.wall = time.Since(tr.t0)
	out.spans = tr.spans
	return out, nil
}

func traceOne(ctx context.Context, tr *tracer, planner *engine.Planner, cache *schemecache.Cache, canon *graph.CanonScratch, req *Request) (tracedRequest, error) {
	root := tr.start(spanRequest, -1)
	tr.spans[root].Class = req.Class
	res := tracedRequest{root: root}

	sp := tr.start(spanBuild, root)
	in, err := buildInstance(&req.Body)
	if err != nil {
		return res, err
	}
	g := in.Graph()
	tr.end(sp)

	sp = tr.start(spanPlan, root)
	plan := planner.Plan(in)
	tr.end(sp)

	// The cache key, derived as the engine's cache rung derives it.
	sp = tr.start(spanFingerprint, root)
	perm, fp := graph.Canonicalize(g, canon)
	key := fp.Mix(hashString(in.Family), guaranteeBits(in.Guarantees), hashString(plan.Solver.Name()))
	tr.end(sp)

	sp = tr.start(spanCacheGet, root)
	var scheme core.Scheme
	ent, err := cache.Get(key)
	hit := err == nil && ent.N == g.N() && ent.M == g.M()
	if hit {
		scheme = schemecache.FromCanonical(ent.Scheme, perm)
	}
	tr.end(sp)

	if hit {
		sp = tr.start(spanVerify, root)
		cost, err := core.Verify(g, scheme)
		tr.end(sp)
		hit = err == nil && cost == ent.Cost
		res.cost = cost
	}
	if !hit {
		sp = tr.start(solveSpan(plan.Solver.Name()), root)
		scheme, err = solver.SolveContext(ctx, plan.Solver, g)
		tr.end(sp)
		if err != nil {
			return res, err
		}
		sp = tr.start(spanVerify, root)
		res.cost, err = core.Verify(g, scheme)
		tr.end(sp)
		if err != nil {
			return res, err
		}
		sp = tr.start(spanCacheInsert, root)
		cache.Insert(key, schemecache.Entry{
			Scheme: schemecache.ToCanonical(scheme, perm),
			N:      g.N(),
			M:      g.M(),
			Cost:   res.cost,
			Solver: plan.Solver.Name(),
		})
		tr.end(sp)
	}
	res.hit = hit

	// The result fields the engine assembles after the solve.
	sp = tr.start(spanAssemble, root)
	res.effective = scheme.EffectiveCost(g)
	res.lower, res.upper, res.components = core.LowerBound(g), core.UpperBound(g), core.Betti0(g)
	tr.end(sp)

	tr.end(root)
	return res, nil
}

// hashString and guaranteeBits derive the cache key words exactly as
// the engine's cache rung does.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func guaranteeBits(gu engine.Guarantees) uint64 {
	var bits uint64
	if gu.CompleteBipartite {
		bits |= 1
	}
	if gu.Universal {
		bits |= 2
	}
	return bits
}

// selfTimes returns each span's duration minus the time its child spans
// cover. Children of one span never overlap: the pass is sequential.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerSeconds sums self time per span name, in seconds.
func layerSeconds(spans []span, self []int64) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// How much of a root span may lie outside its layer spans: the
// benchmark's own glue between calls. Per request it is 3% of the root
// span, or 1ms for short requests, where a single garbage-collection or
// scheduler pause landing between two calls can exceed 3%. Over the
// whole pass, where such pauses average out, it is 1%.
const (
	rootToleranceFrac  = 0.03
	rootToleranceFloor = 1_000_000 // ns
	passToleranceFrac  = 0.01
)

// checkSelfTimes verifies that each request's layer self times add up to
// its root span within the tolerance, and the whole pass's likewise.
func checkSelfTimes(p *tracedPass, self []int64) error {
	var gaps, total int64
	for i, r := range p.reqs {
		root := p.spans[r.root]
		dur, gap := root.End-root.Start, self[r.root]
		if gap < 0 || float64(gap) > max(rootToleranceFrac*float64(dur), rootToleranceFloor) {
			return fmt.Errorf("request %d: layer spans cover %dns of its %dns root span", i, dur-gap, dur)
		}
		gaps += gap
		total += dur
	}
	if float64(gaps) > passToleranceFrac*float64(total) {
		return fmt.Errorf("layer spans cover %dns of the pass's %dns of root spans", total-gaps, total)
	}
	return nil
}

// medianRootMs is the median root span duration, in milliseconds, of
// the requests for which keep is true; 0 when there are none.
func medianRootMs(p *tracedPass, keep func(tracedRequest) bool) float64 {
	var ds []float64
	for _, r := range p.reqs {
		if keep(r) {
			s := p.spans[r.root]
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return nearestRank(ds, 0.5)
}

// writeSpans writes the pass's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
