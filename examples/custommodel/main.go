// Custom-model example: plugging a user-defined diffusion model into the
// library, the paper's "other influence diffusion models" future-work
// direction.
//
// Defines OPOAT — an Opportunistic One-Activate-Two model where every
// active node targets *two* random out-neighbours per step — as an
// implementation of the Model interface, then compares how the same SCBG
// protector set performs under DOAM, OPOAO and OPOAT.
//
//	go run ./examples/custommodel
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"lcrb"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// OPOAT is the custom model: like OPOAO, but each active node picks two
// activation targets per step (with replacement), so rumors spread roughly
// twice as fast while staying person-to-person.
type OPOAT struct{}

var _ lcrb.Model = OPOAT{}

// Name implements lcrb.Model.
func (OPOAT) Name() string { return "OPOAT" }

// RunContext implements lcrb.Model, checking ctx once per hop.
func (OPOAT) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, src *rng.Source, opts lcrb.SimOptions) (*lcrb.SimResult, error) {
	if src == nil {
		return nil, errors.New("opoat: nil random source")
	}
	// Delegate both picks per step to two interleaved OPOAO-style rounds:
	// simplest correct implementation is a direct frontier loop.
	status := make([]lcrb.Status, g.NumNodes())
	for _, r := range rumors {
		status[r] = lcrb.Infected
	}
	for _, p := range protectors {
		status[p] = lcrb.Protected // P priority on overlap
	}
	var active []int32
	for v, st := range status {
		if st != lcrb.Inactive {
			active = append(active, int32(v))
		}
	}
	maxHops := opts.MaxHops
	if maxHops <= 0 {
		maxHops = 64
	}
	res := &lcrb.SimResult{Status: status}
	for hop := 0; hop < maxHops; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("opoat: canceled at hop %d: %w", hop, err)
		}
		proposals := make(map[int32]lcrb.Status)
		for _, u := range active {
			deg := int(g.OutDegree(u))
			if deg == 0 {
				continue
			}
			for pick := 0; pick < 2; pick++ {
				v := g.Out(u)[src.Intn(deg)]
				if status[v] != lcrb.Inactive {
					continue
				}
				if cur, ok := proposals[v]; !ok || (cur == lcrb.Infected && status[u] == lcrb.Protected) {
					proposals[v] = status[u]
				}
			}
		}
		if len(proposals) == 0 {
			continue
		}
		// Map iteration order is randomized by the runtime; apply the
		// proposals in sorted node order so the same seed replays the
		// same cascade (the frontier order feeds next hop's RNG draws).
		nodes := make([]int32, 0, len(proposals))
		for v := range proposals {
			nodes = append(nodes, v)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, v := range nodes {
			status[v] = proposals[v]
			active = append(active, v)
		}
		res.Hops = hop + 1
	}
	for _, st := range status {
		switch st {
		case lcrb.Infected:
			res.Infected++
		case lcrb.Protected:
			res.Protected++
		}
	}
	return res, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net, err := lcrb.GenerateHep(0.08, 31)
	if err != nil {
		return err
	}
	part := lcrb.DetectCommunities(net.Graph, 1)
	comm := part.ClosestBySize(70)
	members := part.Members(comm)
	rumors := members[:3]

	prob, err := lcrb.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		return err
	}
	if prob.NumEnds() == 0 {
		fmt.Println("no bridge ends for this draw; try another seed")
		return nil
	}
	sol, err := lcrb.SolveSCBG(prob, lcrb.SCBGOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("network: %v\n%d bridge ends, %d SCBG protectors\n\n",
		net.Graph, prob.NumEnds(), len(sol.Protectors))

	models := []lcrb.Model{lcrb.DOAM{}, lcrb.OPOAO{}, OPOAT{}}
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "model\tinfected (no blocking)\tinfected (SCBG)\tends lost (SCBG)\t")
	for _, m := range models {
		open, err := meanInfected(m, net, rumors, nil, prob.Ends)
		if err != nil {
			return err
		}
		blocked, err := meanInfected(m, net, rumors, sol.Protectors, prob.Ends)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f/%d\t\n",
			m.Name(), open.infected, blocked.infected, blocked.endsLost, prob.NumEnds())
	}
	return tw.Flush()
}

// outcome aggregates a Monte-Carlo comparison run.
type outcome struct {
	infected float64
	endsLost float64
}

// meanInfected averages infections (and bridge ends lost) over 25 runs.
func meanInfected(m lcrb.Model, net *lcrb.Network, rumors, protectors, ends []int32) (outcome, error) {
	agg, err := lcrb.MonteCarlo{Model: m, Samples: 25, Seed: 5}.
		RunContext(context.Background(), net.Graph, rumors, protectors, lcrb.SimOptions{MaxHops: 31})
	if err != nil {
		return outcome{}, err
	}
	var lost float64
	for _, e := range ends {
		lost += agg.InfectedProb[e]
	}
	return outcome{infected: agg.MeanInfected, endsLost: lost}, nil
}
