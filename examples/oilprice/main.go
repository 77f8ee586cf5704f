// Oil-price scenario: person-to-person rumor budgeting.
//
// Models the Twitter oil-price rumor from the paper's introduction: a false
// report spreads by one-to-one contact (the OPOAO model) out of a trader
// community. A fact-checking desk has limited staff, so it solves LCRB-P —
// protect an α fraction of the bridge ends with as few counter-messaging
// seeds as possible — with the submodular greedy algorithm, and the example
// shows how the required seed count grows with α.
//
//	go run ./examples/oilprice
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"lcrb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net, err := lcrb.GenerateEnron(0.06, 173)
	if err != nil {
		return err
	}
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(60)
	members := part.Members(comm)
	rumors := members[:3]

	prob, err := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		return err
	}
	fmt.Printf("network: %v\n", net.Graph)
	fmt.Printf("trader community %d: %d members, %d rumor sources, %d bridge ends\n",
		comm, len(members), len(rumors), prob.NumEnds())
	if prob.NumEnds() == 0 {
		fmt.Println("no bridge ends; the rumor cannot leave the community")
		return nil
	}

	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "alpha\tseeds\tσ̂(S_P)\ttarget\tachieved\tmean infected\t")
	for _, alpha := range []float64{0.5, 0.7, 0.9} {
		sol, err := lcrb.SolveGreedy(prob, lcrb.GreedyOptions{
			Alpha:   alpha,
			Samples: 20,
			Seed:    9,
		})
		if err != nil {
			return err
		}
		// Measure realized damage with an independent Monte-Carlo run.
		agg, err := lcrb.MonteCarlo{
			Model:   lcrb.OPOAO{},
			Samples: 40,
			Seed:    10,
		}.RunContext(context.Background(), net.Graph, rumors, sol.Protectors, lcrb.SimOptions{MaxHops: 31})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.1f\t%d\t%.1f\t%d\t%v\t%.1f\t\n",
			alpha, len(sol.Protectors), sol.ProtectedEnds,
			prob.RequiredEnds(alpha), sol.Achieved, agg.MeanInfected)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Reference: unchecked spread.
	open, err := lcrb.MonteCarlo{Model: lcrb.OPOAO{}, Samples: 40, Seed: 10}.
		RunContext(context.Background(), net.Graph, rumors, nil, lcrb.SimOptions{MaxHops: 31})
	if err != nil {
		return err
	}
	fmt.Printf("mean infected with no blocking: %.1f\n", open.MeanInfected)
	return nil
}
