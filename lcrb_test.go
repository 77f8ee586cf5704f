package lcrb_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lcrb"
)

// TestFacadeEndToEnd drives the whole pipeline through the public API:
// generate -> detect -> problem -> both solvers -> simulate.
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
	var buf bytes.Buffer
	if err := lcrb.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	el, err := lcrb.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if el.Graph.NumEdges() != 2 {
		t.Fatalf("round trip edges = %d", el.Graph.NumEdges())
	}
}

func TestFacadeHeuristics(t *testing.T) {
	g, err := lcrb.FromEdges(4, []lcrb.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
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

func TestFacadeGraphAlgorithms(t *testing.T) {
	b := lcrb.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := lcrb.PageRank(g)
	if len(pr) != 4 {
		t.Fatalf("PageRank length = %d", len(pr))
	}
	comp, count := lcrb.StronglyConnectedComponents(g)
	if count != 2 {
		t.Fatalf("SCC count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] || comp[3] == comp[0] {
		t.Fatalf("SCC assignment = %v", comp)
	}
}

func TestFacadeRewirePreservesDegrees(t *testing.T) {
	net, err := lcrb.GenerateHep(0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := lcrb.Rewire(net.Graph, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < net.Graph.NumNodes(); u++ {
		if r.OutDegree(u) != net.Graph.OutDegree(u) {
			t.Fatalf("degree changed at %d", u)
		}
	}
}

func TestFacadeICRealizationWithGreedy(t *testing.T) {
	net, err := lcrb.GenerateHep(0.03, 9)
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
	res, err := lcrb.SolveGreedy(prob, lcrb.GreedyOptions{
		Alpha:       0.7,
		Samples:     6,
		Realization: lcrb.ICRealization(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtectedEnds < res.BaselineEnds {
		t.Fatal("IC greedy regressed below baseline")
	}
}

// TestFacadeRobustness exercises the context-aware facade: cancellation,
// budgets with partial results, and fault injection.
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

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lcrb.SolveSCBGContext(canceled, prob, lcrb.SCBGOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveSCBGContext: err = %v, want context.Canceled", err)
	}
	if _, err := lcrb.SimulateContext(canceled, lcrb.DOAM{}, net.Graph, rumors, nil, 0, lcrb.SimOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateContext: err = %v, want context.Canceled", err)
	}
	if _, err := lcrb.SelectHeuristicContext(canceled, lcrb.MaxDegree{}, lcrb.SelectorContext{Graph: net.Graph, Rumors: rumors}, 3, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectHeuristicContext: err = %v, want context.Canceled", err)
	}

	// An evaluation budget yields a partial result plus ErrBudgetExhausted.
	res, err := lcrb.SolveGreedyContext(context.Background(), prob,
		lcrb.GreedyOptions{Alpha: 0.8, Samples: 8, Seed: 2, MaxEvaluations: 2})
	if !errors.Is(err, lcrb.ErrBudgetExhausted) {
		t.Fatalf("SolveGreedyContext: err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("SolveGreedyContext: result = %+v, want non-nil partial", res)
	}

	// Fault injection surfaces ErrFaultInjected through the solver.
	fault := &lcrb.SimFault{FailOn: 1}
	_, err = lcrb.SolveGreedyContext(context.Background(), prob, lcrb.GreedyOptions{
		Alpha: 0.8, Samples: 8, Seed: 2,
		Realization: fault.Realization(lcrb.ICRealization(0.1)),
	})
	if !errors.Is(err, lcrb.ErrFaultInjected) {
		t.Fatalf("fault-injected solve: err = %v, want ErrFaultInjected", err)
	}
	if fault.Calls() == 0 {
		t.Fatal("fault wrapper never invoked")
	}
}

// TestFacadeShardedSolve drives the sharded scatter-gather tier through
// the public API: build slices, host them, solve through the coordinator,
// and check bit-identity with the single-store RIS solve.
func TestFacadeShardedSolve(t *testing.T) {
	net, err := lcrb.GenerateHep(0.04, 99)
	if err != nil {
		t.Fatal(err)
	}
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(40)
	members := part.Members(comm)
	prob, err := lcrb.NewProblem(net.Graph, part.Assign(), comm, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}

	opts := lcrb.SketchOptions{Samples: 32, Seed: 7}
	const shards = 3
	hosts := make([]*lcrb.ShardHost, shards)
	for i := range hosts {
		slice, err := lcrb.BuildSketchShard(prob, opts, i, shards)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = lcrb.NewShardHost(lcrb.StaticShardSlices(slice))
	}
	c := &lcrb.ShardCoordinator{Transport: lcrb.NewShardTransport(hosts), Shards: shards}
	res, err := c.Solve(lcrb.ShardSpec{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "" || res.Shards.Live != shards {
		t.Fatalf("clean solve degraded: %+v", res.Shards)
	}

	set, err := lcrb.BuildSketches(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lcrb.SolveGreedyRIS(prob, set, lcrb.SketchSolveOptions{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Protectors, want.Protectors) || !reflect.DeepEqual(res.Gains, want.Gains) {
		t.Fatalf("sharded solve diverged from single store:\n sharded %v %v\n single  %v %v",
			res.Protectors, res.Gains, want.Protectors, want.Gains)
	}
}

// TestFacadeDynamicGraph drives the dynamic-graph surface through the
// public API: master + delta stream round trip, incremental sketch repair
// equal to a full rebuild, and the version-conflict sentinel.
func TestFacadeDynamicGraph(t *testing.T) {
	net, err := lcrb.GenerateHep(0.04, 99)
	if err != nil {
		t.Fatal(err)
	}
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(40)
	members := part.Members(comm)
	prob, err := lcrb.NewProblem(net.Graph, part.Assign(), comm, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	if prob.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}

	opts := lcrb.SketchOptions{Samples: 16, Seed: 7, Footprints: true}
	set, err := lcrb.BuildSketches(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lcrb.NewGraphMaster(net.Graph)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := lcrb.GenerateDeltaStream(net.Graph, 3, 5, lcrb.GraphStreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lcrb.WriteDeltaStream(&buf, stream); err != nil {
		t.Fatal(err)
	}
	replay, err := lcrb.ReadDeltaStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, stream) {
		t.Fatal("delta stream did not survive the JSONL round trip")
	}

	oldP := prob
	for i, sd := range replay {
		snap, sum, err := m.ApplyDelta(sd.Delta)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		assign := append([]int32(nil), oldP.Assign...)
		for int32(len(assign)) < snap.Graph.NumNodes() {
			assign = append(assign, -1)
		}
		newP, err := lcrb.NewProblem(snap.Graph, assign, oldP.RumorCommunity, oldP.Rumors)
		if err != nil {
			t.Fatalf("batch %d: problem: %v", i, err)
		}
		repaired, _, err := lcrb.RepairSketches(oldP, newP, set, sum.DirtyNodes, snap.Version, 2)
		if err != nil {
			t.Fatalf("batch %d: repair: %v", i, err)
		}
		oracle, err := lcrb.BuildSketches(newP, opts)
		if err != nil {
			t.Fatalf("batch %d: oracle: %v", i, err)
		}
		oracle.Version = snap.Version
		if !reflect.DeepEqual(repaired, oracle) {
			t.Fatalf("batch %d: repaired sketch differs from full rebuild", i)
		}
		set, oldP = repaired, newP
	}

	// A replayed batch has a stale base version: the typed conflict.
	if _, _, err := m.ApplyDelta(replay[0].Delta); !errors.Is(err, lcrb.ErrGraphVersionConflict) {
		t.Fatalf("stale delta: err = %v, want ErrGraphVersionConflict", err)
	}
}
