package lcrb_test

import (
	"fmt"

	"lcrb"
)

// ExampleSolveSCBG demonstrates the LCRB-D pipeline: generate a network,
// detect communities, find bridge ends and pick the least protector set.
func ExampleSolveSCBG() {
	net, _ := lcrb.GenerateHep(0.1, 42)
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(80)
	rumors := part.Members(comm)[:3]

	prob, _ := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
	sol, _ := lcrb.SolveSCBG(prob, lcrb.SCBGOptions{})

	res, _ := lcrb.Simulate(lcrb.DOAM{}, net.Graph, rumors, sol.Protectors, 0, lcrb.SimOptions{})
	infectedEnds := 0
	for _, e := range prob.Ends {
		if res.Status[e] == lcrb.Infected {
			infectedEnds++
		}
	}
	fmt.Printf("bridge ends infected: %d of %d\n", infectedEnds, prob.NumEnds())
	// Output:
	// bridge ends infected: 0 of 45
}

// ExampleSolveGreedy demonstrates LCRB-P: protect a fraction of the bridge
// ends under the stochastic OPOAO model.
func ExampleSolveGreedy() {
	net, _ := lcrb.GenerateHep(0.1, 42)
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(80)
	rumors := part.Members(comm)[:3]

	prob, _ := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
	sol, _ := lcrb.SolveGreedy(prob, lcrb.GreedyOptions{
		Alpha:   0.8,
		Samples: 20,
		Seed:    7,
		Workers: -1, // all cores; the selection is the same for any count
	})
	fmt.Println("achieved:", sol.Achieved)
	// Output:
	// achieved: true
}

// ExampleSimulate shows a deterministic DOAM run with the protector
// cascade winning a tie.
func ExampleSimulate() {
	b := lcrb.NewGraphBuilder(3)
	b.AddEdge(0, 2) // rumor's only path
	b.AddEdge(1, 2) // protector's only path, same length
	g, _ := b.Build()

	res, _ := lcrb.Simulate(lcrb.DOAM{}, g, []int32{0}, []int32{1}, 0, lcrb.SimOptions{})
	fmt.Println("node 2 is", res.Status[2])
	// Output:
	// node 2 is protected
}

// ExampleNewTrace records a simulation and reconstructs an infection path.
func ExampleNewTrace() {
	b := lcrb.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, _ := b.Build()

	trace := lcrb.NewTrace()
	_, _ = lcrb.Simulate(lcrb.DOAM{}, g, []int32{0}, nil, 0, lcrb.SimOptions{
		Observer: trace.Observer(),
	})
	fmt.Println(trace.PathTo(3))
	// Output:
	// [0 1 2 3]
}
