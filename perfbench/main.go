// Command perfbench is the closed-loop benchmark of the pebbled service.
//
// One run generates a workload's request list from -seed, starts the
// real pebbled binary, warms it up, and sends the list over HTTP from
// one or two closed-loop clients (the timed pass). It checks every
// answer against the instance rebuilt locally, scrapes pebbled's
// counters before and after, and prints the end-to-end metrics. With
// -trace 1 it then runs the same list in-process through the layers
// pebbled's planner calls, timing each call from here (the traced
// pass), checks the two passes agree, and prints per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 108, "failed": 0, "metrics": {"latency_p50_ms": {"value": 47.9, "unit": "ms"}, ...}}
//
// Build and run from the repository root with perfbench/run.sh, e.g.
//
//	bash perfbench/run.sh --workload exact-small --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"joinpebble/internal/obs"
)

// setupRounds is how many times a run sets pebbled up; setup_s is the
// median.
const setupRounds = 3

// runDeadline bounds a whole run, so a stuck run still ends in time.
const runDeadline = 170 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics reported with -trace 0 and
// -trace 1; BENCHMARK.json lists the same names and units.
var (
	endToEnd = []metricDef{
		{"throughput_rps", "1/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"cost_ratio", "ratio"},
		{"peak_rss_mb", "MiB"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"serve.overhead_ms", "ms"},
		{"serve.admit_queued", "count"},
		{"serve.admit_rejected", "count"},
		{"engine.build_s", "s"},
		{"engine.plan_s", "s"},
		{"engine.assemble_s", "s"},
		{"engine.degraded", "count"},
		{"graph.fingerprint_s", "s"},
		{"schemecache.hit_frac", "ratio"},
		{"schemecache.get_s", "s"},
		{"schemecache.insert_s", "s"},
		{"schemecache.inserts", "count"},
		{"schemecache.hit_ms", "ms"},
		{"schemecache.miss_ms", "ms"},
		{"solver.approx_s", "s"},
		{"solver.approx_pieces", "count"},
		{"solver.perfect_s", "s"},
		{"tsp.exact_s", "s"},
		{"tsp.heldkarp_states", "count"},
		{"core.verify_s", "s"},
		{"core.simulate_configs", "count"},
		{"trace.overhead_frac", "ratio"},
	}
)

// scraped maps per-layer counter metrics to the pebbled counters whose
// timed-phase deltas they report.
var scraped = []struct{ metric, counter string }{
	{"serve.admit_queued", "serve/admit/queued"},
	{"serve.admit_rejected", "serve/admit/rejected"},
	{"solver.approx_pieces", "solver/approx/path_pieces"},
	{"tsp.heldkarp_states", "tsp/heldkarp/states_expanded"},
	{"core.simulate_configs", "core/simulate/configs"},
}

// workCounters are the counters that must agree exactly between pebbled
// and the traced pass when one client sends the list in order.
var workCounters = []string{"tsp/heldkarp/states_expanded", "core/simulate/configs", "solver/approx/path_pieces"}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	pebbled  string
	spans    string
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: exact-small, approx-large or mixed-repeat")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the request list is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 25, "approximate length of the timed pass; sets the request list length")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.pebbled, "pebbled", filepath.Join(".bench_build", "pebbled"), "pebbled binary")
	fs.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	res, err := bench(ctx, cfg)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run is everything one run measured.
type run struct {
	wl       *Workload
	list     []Request
	setup    []time.Duration
	outs     []outcome
	answered int64 // requests that got a response
	wall     time.Duration
	rssMiB   float64
	before   map[string]int64
	after    map[string]int64
	failures []string
	failed   int
	degraded int
}

func (r *run) delta(counter string) int64 { return r.after[counter] - r.before[counter] }

// bench performs one run and returns its result.
func bench(ctx context.Context, cfg config) (*result, error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &run{wl: wl}
	if err := r.timed(ctx, cfg); err != nil {
		return nil, err
	}
	r.check()
	fmt.Printf("workload %s, seed %d: closed loop, %d client(s), %d requests; pebbled %s\n",
		wl.Name, cfg.seed, wl.Clients, len(r.list), strings.Join(pebbledFlags, " "))
	if wl.Name == "mixed-repeat" {
		fmt.Printf("repeat share %.4f (stated %.4f)\n", repeatShare(r.list), RepeatShare)
	}
	fmt.Printf("failed/attempted %d/%d, degraded %d\n", r.failed, len(r.list), r.degraded)
	for _, f := range r.failures {
		fmt.Println("  failed:", f)
	}
	res := &result{Correct: r.failed == 0, Attempted: len(r.list), Failed: r.failed}
	e2e := withUnits(endToEnd, r.endToEnd())
	printMetrics(endToEnd, e2e, map[string]string{
		"latency_p50_ms": fmt.Sprintf("(n=%d)", len(r.outs)),
		"latency_p90_ms": fmt.Sprintf("(n=%d)", len(r.outs)),
	})
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	layers, problems, err := r.traced(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		fmt.Println("  traced pass:", p)
	}
	res.Metrics = withUnits(perLayer, layers)
	printMetrics(perLayer, res.Metrics, nil)
	res.Correct = res.Correct && len(problems) == 0
	return res, nil
}

// timed sets pebbled up setupRounds times, keeping the last one, and
// runs the timed pass against it.
func (r *run) timed(ctx context.Context, cfg config) (err error) {
	var srv *pebbled
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		if srv, err = startPebbled(ctx, cfg.pebbled); err != nil {
			return err
		}
		// Generating the list is part of set-up, so every round does it.
		r.list = r.wl.List(cfg.seed, cfg.seconds)
		if err := sendAll(ctx, srv, r.wl.warmup); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0))
		if k < setupRounds-1 {
			p := srv
			srv = nil
			if _, err := p.stop(); err != nil {
				return err
			}
		}
	}
	if r.before, err = srv.settledCounters(ctx, int64(len(r.wl.warmup))); err != nil {
		return err
	}
	r.outs, r.wall = runTimed(ctx, srv, r.list, r.wl.Clients, cfg.seed)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("timed pass cut short: %w", err)
	}
	for _, o := range r.outs {
		if o.resp != nil {
			r.answered++
		}
	}
	if r.after, err = srv.settledCounters(ctx, r.before["engine/runs"]+r.answered); err != nil {
		return err
	}
	p := srv
	srv = nil
	r.rssMiB, err = p.stop()
	return err
}

// check runs the answer checks on every timed response.
func (r *run) check() {
	expects := map[int]expectation{}
	fail := func(i int, format string, args ...any) {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
		}
	}
	for i, o := range r.outs {
		req := &r.list[i]
		if o.err != nil {
			fail(i, "%v", o.err)
			continue
		}
		if o.resp == nil {
			fail(i, "not sent")
			continue
		}
		if o.resp.Degraded {
			r.degraded++
		}
		ex, ok := expects[req.First]
		if !ok {
			var err error
			if ex, err = expect(&req.Body); err != nil {
				fail(i, "rebuild instance: %v", err)
				continue
			}
			expects[req.First] = ex
		}
		if err := checkResponse(&req.Body, ex, o.resp); err != nil {
			fail(i, "%v", err)
			continue
		}
		// A repeat is the same instance: unless either answer degraded,
		// it must cost what its first occurrence cost.
		if first := r.outs[req.First].resp; first != nil && !first.Degraded && !o.resp.Degraded && first.Cost != o.resp.Cost {
			fail(i, "cost %d, but its first occurrence %d cost %d", o.resp.Cost, req.First, first.Cost)
		}
	}
}

// endToEnd computes the end-to-end metrics of the timed pass.
func (r *run) endToEnd() map[string]float64 {
	lat := make([]float64, len(r.outs))
	completed, effective, edges := 0, 0, 0
	for i, o := range r.outs {
		lat[i] = float64(o.latency) / 1e6
		if o.err == nil && o.resp != nil {
			completed++
			effective += o.resp.EffectiveCost
			edges += o.resp.Edges
		}
	}
	sort.Float64s(lat)
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	sort.Float64s(setup)
	return map[string]float64{
		"throughput_rps": float64(completed) / r.wall.Seconds(),
		"latency_p50_ms": nearestRank(lat, 0.5),
		"latency_p90_ms": nearestRank(lat, 0.9),
		"cost_ratio":     float64(effective) / float64(max(edges, 1)),
		"peak_rss_mb":    r.rssMiB,
		"setup_s":        nearestRank(setup, 0.5),
	}
}

// traced runs the traced pass, cross-checks it against the timed pass,
// and returns the per-layer metrics and every disagreement found.
func (r *run) traced(ctx context.Context, cfg config) (map[string]float64, []string, error) {
	snap0 := obs.Default.Snapshot()
	tp, err := runTraced(ctx, r.list)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	snap1 := obs.Default.Snapshot()
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", r.wl.Name, cfg.seed))
	if err := writeSpans(path, tp.spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("traced pass: %d spans written to %s\n", len(tp.spans), path)

	var problems []string
	problem := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	hits, inserts := 0, 0
	for i, t := range tp.reqs {
		if t.hit {
			hits++
		} else {
			inserts++
		}
		o := r.outs[i].resp
		if o == nil {
			continue // already counted as a failed request
		}
		if t.cost != o.Cost || t.effective != o.EffectiveCost || t.lower != o.LowerBound || t.upper != o.UpperBound || t.components != o.Components {
			problem("request %d: traced cost %d (π %d, bounds [%d,%d], %d components), pebbled answered %d (π %d, bounds [%d,%d], %d components)",
				i, t.cost, t.effective, t.lower, t.upper, t.components, o.Cost, o.EffectiveCost, o.LowerBound, o.UpperBound, o.Components)
		}
	}
	self := selfTimes(tp.spans)
	if err := checkSelfTimes(tp, self); err != nil {
		problem("%v", err)
	}

	// pebbled's cache and work counters must tell the same story. With
	// one client the order is the same as the traced pass's, so the
	// counts agree exactly; with two, a repeat may overtake its first
	// occurrence, so only pebbled's own totals are checked.
	hit, miss, ins := r.delta("engine/cache/hit"), r.delta("engine/cache/miss"), r.delta("engine/cache/insert")
	if hit+miss != r.answered {
		problem("pebbled cache hits %d + misses %d != %d answered requests", hit, miss, r.answered)
	}
	if r.degraded == 0 && ins != miss {
		problem("pebbled inserted %d schemes for %d misses", ins, miss)
	}
	if r.wl.Clients == 1 {
		if hit != int64(hits) || ins != int64(inserts) {
			problem("pebbled cache hit/insert %d/%d, traced pass %d/%d", hit, ins, hits, inserts)
		}
		for _, c := range workCounters {
			if in := snap1.Counters[c] - snap0.Counters[c]; in != r.delta(c) {
				problem("%s: pebbled %d, traced pass %d", c, r.delta(c), in)
			}
		}
	}

	secs := layerSeconds(tp.spans, self)
	var overhead []float64
	for _, o := range r.outs {
		if o.resp != nil {
			overhead = append(overhead, float64(o.latency-time.Duration(o.resp.ElapsedNS))/1e6)
		}
	}
	sort.Float64s(overhead)
	m := map[string]float64{
		"serve.overhead_ms":    nearestRank(overhead, 0.5),
		"engine.build_s":       secs[spanBuild],
		"engine.plan_s":        secs[spanPlan],
		"engine.assemble_s":    secs[spanAssemble],
		"engine.degraded":      float64(r.degraded),
		"graph.fingerprint_s":  secs[spanFingerprint],
		"schemecache.hit_frac": float64(hits) / float64(len(tp.reqs)),
		"schemecache.get_s":    secs[spanCacheGet],
		"schemecache.insert_s": secs[spanCacheInsert],
		"schemecache.inserts":  float64(inserts),
		"schemecache.hit_ms":   medianRootMs(tp, func(t tracedRequest) bool { return t.hit }),
		"schemecache.miss_ms":  medianRootMs(tp, func(t tracedRequest) bool { return !t.hit }),
		"solver.approx_s":      secs[spanApprox],
		"solver.perfect_s":     secs[spanPerfect],
		"tsp.exact_s":          secs[spanExact],
		"core.verify_s":        secs[spanVerify],
		"trace.overhead_frac":  tp.wall.Seconds()/r.wall.Seconds() - 1,
	}
	for _, s := range scraped {
		m[s.metric] = float64(r.delta(s.counter))
	}
	layer, top := largestLayer(secs)
	fmt.Printf("largest self-time layer: %s (%.3fs of %.3fs traced)\n", layer, top, tp.wall.Seconds())
	return m, problems, nil
}

// largestLayer sums span self times by layer (the span name up to its
// dot) and returns the layer with the most.
func largestLayer(secs map[string]float64) (string, float64) {
	byLayer := map[string]float64{}
	for name, s := range secs {
		if layer, _, ok := strings.Cut(name, "."); ok {
			byLayer[layer] += s
		}
	}
	best, top := "", -1.0
	for layer, s := range byLayer {
		if s > top || (s == top && layer < best) {
			best, top = layer, s
		}
	}
	return best, top
}

// repeatShare is the share of list entries that repeat an earlier one.
func repeatShare(list []Request) float64 {
	repeats := 0
	for i, r := range list {
		if r.First != i {
			repeats++
		}
	}
	return float64(repeats) / float64(len(list))
}

// nearestRank is the p-quantile of sorted values by the nearest-rank
// method; 0 for no values.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(p*float64(len(sorted))))-1)]
}

// withUnits attaches each metric's declared unit to its value.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("metric " + d.name + " not computed")
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

func printMetrics(defs []metricDef, m map[string]metric, notes map[string]string) {
	for _, d := range defs {
		fmt.Printf("  %-24s %14.6g %-6s %s\n", d.name, m[d.name].Value, d.unit, notes[d.name])
	}
}
