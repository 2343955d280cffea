package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"joinpebble/internal/engine"
	"joinpebble/internal/solver"
)

func TestListDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := json.Marshal(w.List(1, 10))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(w.List(1, 10))
		c, _ := json.Marshal(w.List(2, 10))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request lists", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.Name)
		}
	}
}

// componentEdges returns the edge counts of g's components that have
// edges, and whether each is complete bipartite.
func componentEdges(t *testing.T, in *engine.Instance) (counts []int, complete []bool) {
	t.Helper()
	g := in.Graph()
	for _, vs := range g.Components() {
		sub, _ := g.InducedSubgraph(vs)
		if sub.M() == 0 {
			continue
		}
		counts = append(counts, sub.M())
		complete = append(complete, solver.IsEquijoinGraph(sub))
	}
	return counts, complete
}

func TestExactSmallPlansExact(t *testing.T) {
	w, _ := lookupWorkload("exact-small")
	list := w.List(7, 20)
	if len(list) < 100 {
		t.Fatalf("a 20s run has %d requests, want at least 100 for a p90 with ten samples beyond it", len(list))
	}
	p := &engine.Planner{}
	for i, r := range list {
		in, err := buildInstance(&r.Body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		counts, complete := componentEdges(t, in)
		if len(counts) < 1 || len(counts) > 3 {
			t.Errorf("request %d: %d components, want 1-3", i, len(counts))
		}
		for k, m := range counts {
			if m < 12 || m > 20 {
				t.Errorf("request %d: component with %d edges, want 12-20", i, m)
			}
			if complete[k] {
				t.Errorf("request %d: a component is complete bipartite", i)
			}
		}
		if route := p.Plan(in).Route; route != solver.RouteExact {
			t.Errorf("request %d plans to %v, want the exact rung", i, route)
		}
	}
}

func TestApproxLargePlansApprox(t *testing.T) {
	w, _ := lookupWorkload("approx-large")
	list := w.List(7, 20)
	if len(list) < 100 {
		t.Fatalf("a 20s run has %d requests, want at least 100", len(list))
	}
	p := &engine.Planner{}
	targets := map[string]int{}
	for _, s := range approxBlock {
		targets[s.class] = s.target
	}
	seeds := map[int64]bool{}
	for i, r := range list {
		if seeds[r.Body.Seed] {
			t.Errorf("request %d reuses instance seed %d", i, r.Body.Seed)
		}
		seeds[r.Body.Seed] = true
		if r.Body.Left < 128 || r.Body.Left > 256 {
			t.Errorf("request %d has %d tuples per side, want 128-256", i, r.Body.Left)
		}
		in, err := buildInstance(&r.Body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if route := p.Plan(in).Route; route != solver.RouteApprox {
			t.Errorf("request %d plans to %v, want the approx rung", i, route)
		}
		if m, want := largestComponentEdges(in.Graph()), targets[r.Class]; math.Abs(float64(m-want)) > targetSlack*float64(want) {
			t.Errorf("request %d (%s): largest component has %d edges, want %d±%.0f%%", i, r.Class, m, want, 100*targetSlack)
		}
	}
}

func TestMixedRepeatShare(t *testing.T) {
	w, _ := lookupWorkload("mixed-repeat")
	for _, seconds := range []int{1, 20} {
		list := w.List(7, seconds)
		repeats := 0
		for i, r := range list {
			if r.First == i {
				continue
			}
			repeats++
			first := list[r.First]
			if r.First > i || first.First != r.First || first.Body.Seed != r.Body.Seed || first.Body.Family != r.Body.Family {
				t.Fatalf("request %d does not repeat request %d", i, r.First)
			}
			if len(list) > 10*repeatGap && i-r.First < repeatGap {
				t.Errorf("request %d repeats request %d, fewer than %d positions back", i, r.First, repeatGap)
			}
		}
		if got := repeatShare(list); got != RepeatShare || 3*repeats != 2*len(list) {
			t.Errorf("%ds list: repeat share %v (%d of %d), want %v", seconds, got, repeats, len(list), RepeatShare)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 40, End: 95},
		{ID: 3, Parent: 2, Start: 50, End: 60},
	}
	got := selfTimes(spans)
	want := []int64{15, 30, 45, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := nearestRank(v, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := nearestRank(v, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names the
// workloads and metrics this program runs and reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].Name)
		}
		// The why records the loop, the client count, the seed argument
		// and the pebbled flags, and for mixed-repeat the repeat share.
		loop := fmt.Sprintf("Closed loop, %d client", workloads[i].Clients)
		for _, want := range []string{loop, "--seed", "pebbled " + strings.Join(pebbledFlags, " ")} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not say %q", w.Name, w.Why, want)
			}
		}
		if w.Name == "mixed-repeat" {
			share := fmt.Sprintf("repeat share %.4f", repeatShare(workloads[i].List(1, 25)))
			if !strings.Contains(w.Why, share) {
				t.Errorf("%s: why %q does not say %q", w.Name, w.Why, share)
			}
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkCountersRepeat runs short exact-small and approx-large runs
// twice against a freshly built pebbled: the answers must pass every
// check, both passes must agree, and pebbled's work counters must repeat
// exactly.
func TestWorkCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pebbled and runs it")
	}
	bin := filepath.Join(t.TempDir(), "pebbled")
	build := exec.Command("go", "build", "-o", bin, "joinpebble/cmd/pebbled")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pebbled: %v\n%s", err, out)
	}
	for _, name := range []string{"exact-small", "approx-large"} {
		cfg := config{workload: name, seed: 3, seconds: 1, trace: true, pebbled: bin, spans: t.TempDir()}
		var first map[string]metric
		for round := 0; round < 2; round++ {
			res, err := bench(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s: run not correct: %d of %d failed", name, res.Failed, res.Attempted)
			}
			if round == 0 {
				first = res.Metrics
				continue
			}
			for _, c := range []string{"tsp.heldkarp_states", "core.simulate_configs", "solver.approx_pieces"} {
				if res.Metrics[c] != first[c] {
					t.Errorf("%s: %s = %v, then %v", name, c, first[c].Value, res.Metrics[c].Value)
				}
			}
		}
		work := "tsp.heldkarp_states"
		if name == "approx-large" {
			work = "solver.approx_pieces"
		}
		if first[work].Value == 0 {
			t.Errorf("%s: %s is 0", name, work)
		}
	}
}

func TestCheckSelfTimes(t *testing.T) {
	pass := func(gaps ...int64) *tracedPass {
		p := &tracedPass{}
		var at int64
		for i, g := range gaps {
			root := len(p.spans)
			p.spans = append(p.spans,
				span{Req: i, ID: root, Parent: -1, Start: at, End: at + 100_000_000},
				span{Req: i, ID: root + 1, Parent: root, Start: at + g, End: at + 100_000_000})
			p.reqs = append(p.reqs, tracedRequest{root: root})
			at += 100_000_000
		}
		return p
	}
	for _, tc := range []struct {
		gaps []int64
		ok   bool
	}{
		{[]int64{0, 0, 0}, true},
		{[]int64{2_000_000, 0, 0, 0}, true},    // 2% of one request, 0.5% of the pass
		{[]int64{4_000_000, 0, 0, 0}, false},   // 4% of one request
		{[]int64{2_000_000, 2_000_000}, false}, // 2% of the whole pass
	} {
		p := pass(tc.gaps...)
		if err := checkSelfTimes(p, selfTimes(p.spans)); (err == nil) != tc.ok {
			t.Errorf("gaps %v: err %v, want ok=%v", tc.gaps, err, tc.ok)
		}
	}
}
