// Command lcrbrun runs one rumor-blocking scenario end to end: load or
// generate a network, detect communities, draw rumor seeds, select
// protectors with the chosen algorithm, and simulate both cascades.
//
// Usage:
//
//	lcrbrun -dataset hep -scale 0.1 -community-size 80 -rumor-frac 0.05 \
//	        -algorithm scbg -model doam
//	lcrbrun -graph net.txt -communities net.comm -algorithm greedy -model opoao
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lcrb/internal/checkpoint"
	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/heuristic"
	"lcrb/internal/resilience"
	"lcrb/internal/rng"
)

func main() {
	interrupt := resilience.Interrupt{
		OnFirst: func() {
			fmt.Fprintln(os.Stderr, "lcrbrun: interrupt received, draining — press again to force quit")
		},
	}
	ctx, stop := interrupt.Notify()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lcrbrun:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lcrbrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "edge-list file (overrides -dataset)")
		commPath  = fs.String("communities", "", "community assignment file for -graph (default: run Louvain)")
		dataset   = fs.String("dataset", "hep", "generated dataset when no -graph: hep or enron")
		scale     = fs.Float64("scale", 0.1, "generated network scale")
		seed      = fs.Uint64("seed", 1, "seed for every random draw")
		commSize  = fs.Int("community-size", 100, "target rumor community size")
		rumorFrac = fs.Float64("rumor-frac", 0.05, "rumor seeds as a fraction of the community")
		algorithm = fs.String("algorithm", "scbg", "protector selection: scbg, greedy, maxdegree, proximity, random, none")
		model     = fs.String("model", "doam", "diffusion model: doam or opoao")
		alpha     = fs.Float64("alpha", 0.9, "protection level for -algorithm greedy")
		budget    = fs.Int("budget", 0, "protector budget for heuristics (default |R|)")
		hops      = fs.Int("hops", 31, "simulation horizon")
		samples   = fs.Int("samples", 50, "Monte-Carlo samples for stochastic models")
		workers   = fs.Int("workers", 0, "parallel evaluation goroutines (0/1 = serial, -1 = all cores); results are identical for every value")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		ckptPath  = fs.String("checkpoint", "", "checkpoint file recording the selected protectors")
		resume    = fs.Bool("resume", false, "reuse protectors from -checkpoint instead of re-selecting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptPath == "" {
		return errors.New("-resume requires -checkpoint")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, assign, err := loadNetwork(*graphPath, *commPath, *dataset, *scale, *seed)
	if err != nil {
		return err
	}
	part, err := community.FromAssignment(assign)
	if err != nil {
		return err
	}
	comm := part.ClosestBySize(int32(*commSize))
	members := part.Members(comm)

	src := rng.New(*seed + 100)
	k := int32(float64(len(members)) * *rumorFrac)
	if k < 1 {
		k = 1
	}
	var rumors []int32
	for _, i := range src.SampleInt32(int32(len(members)), k) {
		rumors = append(rumors, members[i])
	}

	prob, err := core.NewProblem(g, part.Assign(), comm, rumors)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "network: %v\ncommunity %d: |C| = %d, |R| = %d, |B| = %d\n",
		g, comm, len(members), len(rumors), prob.NumEnds())

	// Protector selection is the expensive stage; a checkpoint records its
	// result so an interrupted or repeated run can skip straight to the
	// simulation. The fingerprint covers every flag that influences
	// selection, so a checkpoint never leaks across configurations.
	// -workers is deliberately absent: selection is bit-identical for every
	// worker count, so a checkpoint written serially resumes a parallel run
	// (and vice versa).
	fingerprint := fmt.Sprintf(
		"lcrbrun graph=%s communities=%s dataset=%s scale=%g seed=%d community-size=%d rumor-frac=%g algorithm=%s alpha=%g budget=%d samples=%d hops=%d",
		*graphPath, *commPath, *dataset, *scale, *seed, *commSize, *rumorFrac, *algorithm, *alpha, *budget, *samples, *hops)
	var sweep *checkpoint.Sweep
	if *ckptPath != "" {
		if *resume {
			sweep, err = checkpoint.Load(*ckptPath, fingerprint)
			if err != nil {
				return err
			}
		} else {
			sweep = &checkpoint.Sweep{Version: checkpoint.Version, Fingerprint: fingerprint}
		}
	}

	var protectors []int32
	restored := false
	if sweep != nil {
		if u, ok := sweep.Get("protectors"); ok {
			protectors, err = decodeProtectors(u.Output)
			if err != nil {
				return err
			}
			restored = true
			fmt.Fprintf(stderr, "lcrbrun: resumed %d protectors from %s\n", len(protectors), *ckptPath)
		}
	}
	if !restored {
		protectors, err = selectProtectors(ctx, stderr, *algorithm, prob, g, rumors, *alpha, *budget, *samples, *hops, *workers, *seed, src)
		if err != nil {
			return err
		}
		if sweep != nil {
			sweep.Mark(checkpoint.Unit{Name: "protectors", Output: encodeProtectors(protectors)})
			if err := checkpoint.Save(*ckptPath, sweep); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "algorithm %s selected %d protectors\n", *algorithm, len(protectors))

	if err := simulate(ctx, stdout, *model, g, rumors, protectors, prob.Ends, *hops, *samples, *workers, *seed); err != nil {
		return err
	}
	// A completed run cleans up after itself; the checkpoint only matters
	// when the simulation stage did not finish.
	return checkpoint.Remove(*ckptPath)
}

// encodeProtectors renders a protector set for checkpoint storage.
func encodeProtectors(ps []int32) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.FormatInt(int64(p), 10)
	}
	return strings.Join(parts, " ")
}

// decodeProtectors parses a checkpointed protector set.
func decodeProtectors(s string) ([]int32, error) {
	fields := strings.Fields(s)
	ps := make([]int32, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("checkpointed protector %q: %w", f, err)
		}
		ps = append(ps, int32(v))
	}
	return ps, nil
}

// loadNetwork reads or generates the graph plus a community assignment.
func loadNetwork(graphPath, commPath, dataset string, scale float64, seed uint64) (*graph.Graph, []int32, error) {
	if graphPath != "" {
		el, err := graph.ReadEdgeListFile(graphPath)
		if err != nil {
			return nil, nil, err
		}
		if commPath != "" {
			f, err := os.Open(commPath)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			assign, err := graph.ReadCommunities(f, el.Graph.NumNodes(), el.Labels)
			if err != nil {
				return nil, nil, err
			}
			return el.Graph, assign, nil
		}
		part := community.Louvain(el.Graph, community.LouvainOptions{Seed: seed})
		return el.Graph, part.Assign(), nil
	}
	var (
		net *gen.Network
		err error
	)
	switch dataset {
	case "hep":
		net, err = gen.Hep(scale, seed)
	case "enron":
		net, err = gen.Enron(scale, seed)
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	if err != nil {
		return nil, nil, err
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: seed})
	return net.Graph, part.Assign(), nil
}

// selectProtectors dispatches on the algorithm name.
func selectProtectors(ctx context.Context, stderr io.Writer, algorithm string, prob *core.Problem, g *graph.Graph, rumors []int32, alpha float64, budget, samples, hops, workers int, seed uint64, src *rng.Source) ([]int32, error) {
	if budget <= 0 {
		budget = len(rumors)
	}
	switch algorithm {
	case "scbg":
		res, err := core.SCBGContext(ctx, prob, core.SCBGOptions{})
		if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) {
			if res != nil && res.UncoverableEnds > 0 {
				fmt.Fprintf(stderr, "lcrbrun: warning: %d bridge ends uncoverable\n", res.UncoverableEnds)
				return res.Protectors, nil
			}
			return nil, err
		}
		if res == nil {
			return nil, nil
		}
		return res.Protectors, nil
	case "greedy":
		res, err := core.GreedyContext(ctx, prob, core.GreedyOptions{
			Alpha: alpha, Samples: samples / 2, Seed: seed + 200, MaxHops: hops,
			Workers: workers,
		})
		if err != nil {
			if errors.Is(err, core.ErrNoBridgeEnds) {
				return nil, nil
			}
			if res != nil && res.Partial {
				fmt.Fprintf(stderr, "lcrbrun: greedy interrupted after selecting %d protectors\n", len(res.Protectors))
			}
			return nil, err
		}
		if !res.Achieved {
			fmt.Fprintf(stderr, "lcrbrun: warning: greedy reached σ̂ = %.1f of target %.1f\n",
				res.ProtectedEnds, alpha*float64(prob.NumEnds()))
		}
		return res.Protectors, nil
	case "maxdegree", "proximity", "random", "none":
		var sel heuristic.Selector
		switch algorithm {
		case "maxdegree":
			sel = heuristic.MaxDegree{}
		case "proximity":
			sel = heuristic.Proximity{}
		case "random":
			sel = heuristic.Random{}
		case "none":
			sel = heuristic.NoBlocking{}
		}
		hctx := heuristic.Context{Graph: g, Rumors: rumors, BridgeEnds: prob.Ends}
		return heuristic.SelectContext(ctx, sel, hctx, budget, src.Split())
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algorithm)
	}
}

// simulate runs the chosen model and prints the outcome.
func simulate(ctx context.Context, stdout io.Writer, model string, g *graph.Graph, rumors, protectors, ends []int32, hops, samples, workers int, seed uint64) error {
	var m diffusion.Model
	switch model {
	case "doam":
		m = diffusion.DOAM{}
	case "opoao":
		m = diffusion.OPOAO{}
	default:
		return fmt.Errorf("unknown model %q", model)
	}
	opts := diffusion.Options{MaxHops: hops, RecordHops: true}
	if model == "doam" {
		res, err := diffusion.RunModelContext(ctx, m, g, rumors, protectors, nil, opts)
		if err != nil {
			return err
		}
		printOutcome(stdout, float64(res.Infected), float64(res.Protected), countInfectedEnds(res.Status, ends), len(ends))
		return nil
	}
	agg, err := diffusion.MonteCarlo{Model: m, Samples: samples, Seed: seed + 300, Workers: workers}.RunContext(ctx, g, rumors, protectors, opts)
	if err != nil {
		return err
	}
	var infectedEnds float64
	for _, e := range ends {
		infectedEnds += agg.InfectedProb[e]
	}
	printOutcome(stdout, agg.MeanInfected, agg.MeanProtected, infectedEnds, len(ends))
	return nil
}

// countInfectedEnds counts bridge ends with Infected status.
func countInfectedEnds(status []diffusion.Status, ends []int32) float64 {
	var n float64
	for _, e := range ends {
		if status[e] == diffusion.Infected {
			n++
		}
	}
	return n
}

// printOutcome prints the final cascade sizes.
func printOutcome(stdout io.Writer, infected, protected, infectedEnds float64, numEnds int) {
	fmt.Fprintf(stdout, "infected nodes:   %.1f\nprotected nodes:  %.1f\n", infected, protected)
	if numEnds > 0 {
		fmt.Fprintf(stdout, "bridge ends infected: %.1f of %d (%.1f%%)\n",
			infectedEnds, numEnds, 100*infectedEnds/float64(numEnds))
	}
}
