package main

// Answer checks. Every timed response is checked against the instance
// rebuilt locally from its request.

import (
	"fmt"
	"strings"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/graph"
	"joinpebble/internal/serve"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

// buildInstance materializes a request's join problem exactly as
// pebbled's /v1 handler does: an explicit bipartite graph, or a
// generated workload with the handler's fixed generator parameters.
func buildInstance(req *serve.SolveRequest) (*engine.Instance, error) {
	switch req.Family {
	case "bipartite":
		b := graph.NewBipartite(req.Left, req.Right)
		for _, e := range req.Edges {
			if e[0] < 0 || e[0] >= req.Left || e[1] < 0 || e[1] >= req.Right {
				return nil, fmt.Errorf("edge [%d,%d] out of range %dx%d", e[0], e[1], req.Left, req.Right)
			}
			b.AddEdge(e[0], e[1])
		}
		return engine.FromBipartite("bipartite", b), nil
	case "equijoin":
		return engine.Generate(workload.Equijoin{
			LeftSize:  req.Left,
			RightSize: req.Right,
			Domain:    max(2, int64(req.Left+req.Right)/4),
			Skew:      req.Skew,
		}, req.Seed)
	case "containment":
		return engine.Generate(workload.SetContainment{
			LeftSize:   req.Left,
			RightSize:  req.Right,
			Universe:   64,
			LeftMax:    3,
			RightMax:   12,
			Correlated: true,
		}, req.Seed)
	case "spatial":
		return engine.Generate(workload.Spatial{
			LeftSize:  req.Left,
			RightSize: req.Right,
			Span:      100,
			MaxExtent: 8,
			Clusters:  int(req.Skew),
		}, req.Seed)
	}
	return nil, fmt.Errorf("unknown family %q", req.Family)
}

// expectation is what a correct response must report for an instance.
type expectation struct {
	vertices, edges, components int
	lower, upper                int
	approxBound                 int // Theorem 3.1's bound on π̂
}

func expect(req *serve.SolveRequest) (expectation, error) {
	in, err := buildInstance(req)
	if err != nil {
		return expectation{}, err
	}
	g := in.Graph()
	return expectation{
		vertices:    g.N(),
		edges:       g.M(),
		components:  core.Betti0(g),
		lower:       core.LowerBound(g),
		upper:       core.UpperBound(g),
		approxBound: solver.ApproxCostBound(g),
	}, nil
}

// checkResponse returns why resp is not a correct answer to the request
// ex was built from, or nil.
func checkResponse(req *serve.SolveRequest, ex expectation, resp *serve.SolveResponse) error {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if resp.Family != req.Family {
		fail("family %q, want %q", resp.Family, req.Family)
	}
	if resp.Vertices != ex.vertices || resp.Edges != ex.edges || resp.Components != ex.components {
		fail("shape %dv/%de/%dc, want %dv/%de/%dc", resp.Vertices, resp.Edges, resp.Components, ex.vertices, ex.edges, ex.components)
	}
	if resp.LowerBound != ex.lower || resp.UpperBound != ex.upper {
		fail("bounds [%d,%d], want [%d,%d]", resp.LowerBound, resp.UpperBound, ex.lower, ex.upper)
	}
	if resp.Cost < ex.lower || resp.Cost > ex.upper {
		fail("cost %d outside Lemma 2.1 bounds [%d,%d]", resp.Cost, ex.lower, ex.upper)
	}
	if resp.EffectiveCost != resp.Cost-ex.components {
		fail("effective cost %d, want cost %d - components %d", resp.EffectiveCost, resp.Cost, ex.components)
	}
	if (resp.Perfect || req.Family == "equijoin") && resp.EffectiveCost != ex.edges {
		fail("perfect answer has effective cost %d, want edges %d", resp.EffectiveCost, ex.edges)
	}
	if strings.Contains(resp.Quality, "Thm 3.1") && resp.Cost > ex.approxBound {
		fail("cost %d exceeds Theorem 3.1 bound %d", resp.Cost, ex.approxBound)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}
