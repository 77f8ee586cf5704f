package lcrb_test

import (
	"errors"
	"strings"
	"testing"

	"lcrb"
)

// TestFacadeEndToEnd drives the whole pipeline through the public API:
// generate -> detect -> problem -> SCBG, greedy and RIS -> simulate.
func TestFacadeEndToEnd(t *testing.T) {
	net, err := lcrb.GenerateHep(0.04, 99)
	if err != nil {
		t.Fatal(err)
	}
	part := lcrb.DetectCommunities(net.Graph, 1)
	if err := part.Validate(net.Graph.NumNodes()); err != nil {
		t.Fatal(err)
	}
	if q := lcrb.Modularity(net.Graph, part); q <= 0 {
		t.Fatalf("modularity = %v, want > 0 on a modular network", q)
	}
	comm := part.ClosestBySize(40)
	members := part.Members(comm)
	rumors := members[:2]

	prob, err := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}

	scbg, err := lcrb.SolveSCBG(prob, lcrb.SCBGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scbg.Protectors) == 0 {
		t.Fatal("SCBG selected nothing despite bridge ends existing")
	}

	greedy, err := lcrb.SolveGreedy(prob, lcrb.GreedyOptions{Alpha: 0.8, Samples: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.ProtectedEnds < greedy.BaselineEnds {
		t.Fatal("greedy made things worse")
	}

	set, err := lcrb.BuildSketches(prob, lcrb.SketchOptions{Samples: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ris, err := lcrb.SolveGreedyRIS(prob, set, lcrb.SketchSolveOptions{Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !ris.Achieved || len(ris.Protectors) == 0 {
		t.Fatalf("RIS solve = %+v, want an achieved, non-empty cover", ris)
	}

	sim, err := lcrb.Simulate(lcrb.DOAM{}, net.Graph, rumors, scbg.Protectors, 0, lcrb.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Infected+sim.Protected == 0 {
		t.Fatal("simulation activated nothing")
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	b := lcrb.NewGraphBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph = %v", g)
	}
}

func TestFacadeHeuristics(t *testing.T) {
	b := lcrb.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := lcrb.SelectorContext{Graph: g, Rumors: []int32{0}}
	seeds, err := lcrb.SelectHeuristic(lcrb.Proximity{}, ctx, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 {
		t.Fatalf("selected %v", seeds)
	}
}

func TestFacadeStatusNames(t *testing.T) {
	if !strings.Contains(lcrb.Protected.String(), "protected") {
		t.Fatal("status alias broken")
	}
}

// TestFacadeRobustness checks SolveGreedy's budget contract: an
// exhausted evaluation budget yields a partial result plus
// ErrBudgetExhausted.
func TestFacadeRobustness(t *testing.T) {
	net, err := lcrb.GenerateHep(0.04, 99)
	if err != nil {
		t.Fatal(err)
	}
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(40)
	rumors := part.Members(comm)[:2]
	prob, err := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}

	res, err := lcrb.SolveGreedy(prob, lcrb.GreedyOptions{Alpha: 0.8, Samples: 8, Seed: 2, MaxEvaluations: 2})
	if !errors.Is(err, lcrb.ErrBudgetExhausted) {
		t.Fatalf("SolveGreedy: err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("SolveGreedy: result = %+v, want non-nil partial", res)
	}
}
