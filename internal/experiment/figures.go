package experiment

import (
	"context"
	"errors"
	"fmt"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
	"lcrb/internal/sketch"
)

// Algorithm labels used across figures and tables.
const (
	AlgoGreedy     = "Greedy"
	AlgoSCBG       = "SCBG"
	AlgoProximity  = "Proximity"
	AlgoMaxDegree  = "MaxDegree"
	AlgoRandom     = "Random"
	AlgoNoBlocking = "NoBlocking"
)

// Panel is one sub-plot of a figure: the infected-versus-hops series of
// every algorithm for one rumor-seed draw size.
type Panel struct {
	// RumorFraction is |R| / |C| for this panel.
	RumorFraction float64
	// NumRumors, NumEnds and Budget record the panel's instance sizes:
	// rumor seeds drawn, bridge ends found, and protector seeds granted
	// to every algorithm.
	NumRumors int
	NumEnds   int
	Budget    int
	// Series maps algorithm name to its mean cumulative infected count
	// per hop (index 0 = seeds only, index Hops = final).
	Series map[string][]float64
	// Protectors records each algorithm's actual seed set size (can fall
	// short of Budget when a ranking runs out of candidates).
	Protectors map[string]int
}

// FigureResult is a reproduced figure.
type FigureResult struct {
	Config Config
	Panels []Panel
}

// RunFigureOPOAOContext reproduces Figures 4-6: every algorithm gets the
// same protector budget (the paper grants "the same number of protector and
// rumor originators"), and the mean number of infected nodes per hop under
// OPOAO is recorded over MCSamples Monte-Carlo runs. Cancellation is checked
// per panel and forwarded to the greedy and the Monte-Carlo sweeps.
func RunFigureOPOAOContext(ctx context.Context, inst *Instance) (*FigureResult, error) {
	cfg := inst.Config
	out := &FigureResult{Config: cfg}
	src := rng.New(cfg.Seed + 2)
	for _, frac := range cfg.RumorFractions {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
		}
		prob, err := inst.NewProblem(frac, src)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
		}
		rumors := prob.Rumors
		budget := len(rumors)

		panel := Panel{
			RumorFraction: frac,
			NumRumors:     len(rumors),
			NumEnds:       prob.NumEnds(),
			Budget:        budget,
			Series:        make(map[string][]float64),
			Protectors:    make(map[string]int),
		}

		// Greedy (LCRB-P) under the protector budget, driven by the
		// configured σ̂ estimator.
		var greedySeeds []int32
		if prob.NumEnds() > 0 {
			switch cfg.Estimator {
			case EstimatorRIS:
				opts := sketch.Options{
					Samples: cfg.RISSamples,
					Epsilon: cfg.RISEpsilon,
					Delta:   cfg.RISDelta,
					Seed:    cfg.Seed + 3,
					MaxHops: cfg.Hops,
					Workers: cfg.Workers,
				}
				if cfg.RISShards > 1 {
					gres, err := solveShardedRIS(ctx, prob, opts, cfg.RISShards, budget)
					if err != nil {
						return nil, fmt.Errorf("experiment: %s: greedy (sharded ris): %w", cfg.Name, err)
					}
					greedySeeds = gres.Protectors
					break
				}
				set, err := sketch.BuildContext(ctx, prob, opts)
				if err != nil {
					return nil, fmt.Errorf("experiment: %s: sketch build: %w", cfg.Name, err)
				}
				gres, err := sketch.SolveGreedyRISContext(ctx, prob, set, sketch.SolveOptions{
					Alpha:         0.99,
					MaxProtectors: budget,
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: %s: greedy (ris): %w", cfg.Name, err)
				}
				greedySeeds = gres.Protectors
			default:
				gres, err := core.GreedyContext(ctx, prob, core.GreedyOptions{
					Alpha:         0.99,
					Samples:       cfg.GreedySamples,
					Seed:          cfg.Seed + 3,
					MaxHops:       cfg.Hops,
					MaxProtectors: budget,
					Workers:       cfg.Workers,
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: %s: greedy: %w", cfg.Name, err)
				}
				greedySeeds = gres.Protectors
			}
		}
		// Keep budgets equal across algorithms: heuristics get exactly as
		// many seeds as the greedy ended up using (or the full budget when
		// the greedy used it all).
		k := len(greedySeeds)
		if k == 0 {
			k = budget
		}

		hctx := heuristic.Context{Graph: inst.Net.Graph, Rumors: rumors, BridgeEnds: prob.Ends}
		seedSets := map[string][]int32{
			AlgoGreedy:     greedySeeds,
			AlgoNoBlocking: nil,
		}
		for _, sel := range []heuristic.Selector{heuristic.Proximity{}, heuristic.MaxDegree{}} {
			seeds, err := heuristic.SelectContext(ctx, sel, hctx, k, src.Split())
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
			}
			seedSets[sel.Name()] = seeds
		}

		for name, protectors := range seedSets {
			agg, err := diffusion.MonteCarlo{
				Model:   diffusion.OPOAO{},
				Samples: cfg.MCSamples,
				Seed:    cfg.Seed + 4,
				Workers: cfg.Workers,
			}.RunContext(ctx, inst.Net.Graph, rumors, protectors, diffusion.Options{
				MaxHops:    cfg.Hops,
				RecordHops: true,
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: simulate %s: %w", cfg.Name, name, err)
			}
			panel.Series[name] = agg.MeanInfectedAtHop
			panel.Protectors[name] = len(protectors)
		}
		out.Panels = append(out.Panels, panel)
	}
	return out, nil
}

// RunFigureDOAMContext reproduces Figures 7-9: the protector budget of every
// panel is the size of the SCBG solution; the heuristics draw that many
// seeds at random from their own full solutions, exactly as in the paper's
// setup. Cancellation is checked per panel and forwarded to SCBG and the
// DOAM simulations.
func RunFigureDOAMContext(ctx context.Context, inst *Instance) (*FigureResult, error) {
	cfg := inst.Config
	out := &FigureResult{Config: cfg}
	src := rng.New(cfg.Seed + 5)
	for _, frac := range cfg.RumorFractions {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
		}
		prob, err := inst.NewProblem(frac, src)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
		}
		rumors := prob.Rumors
		panel := Panel{
			RumorFraction: frac,
			NumRumors:     len(rumors),
			NumEnds:       prob.NumEnds(),
			Series:        make(map[string][]float64),
			Protectors:    make(map[string]int),
		}

		var scbgSeeds []int32
		if prob.NumEnds() > 0 {
			sres, err := core.SCBGContext(ctx, prob, core.SCBGOptions{})
			if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) {
				// A partially-coverable instance still yields a usable
				// (partial) seed set.
				var uncoverable bool
				if sres != nil && sres.UncoverableEnds > 0 {
					uncoverable = true
				}
				if !uncoverable {
					return nil, fmt.Errorf("experiment: %s: scbg: %w", cfg.Name, err)
				}
			}
			if sres != nil {
				scbgSeeds = sres.Protectors
			}
		}
		budget := len(scbgSeeds)
		panel.Budget = budget

		hctx := heuristic.Context{Graph: inst.Net.Graph, Rumors: rumors, BridgeEnds: prob.Ends}
		seedSets := map[string][]int32{
			AlgoSCBG:       scbgSeeds,
			AlgoNoBlocking: nil,
		}
		for _, sel := range []heuristic.Selector{heuristic.Proximity{}, heuristic.MaxDegree{}} {
			// "We compute their solutions first, then randomly choose the
			// protectors with the predetermined size": find the prefix of
			// the ranking that protects every bridge end, then sample the
			// budget from it.
			rank, err := sel.Rank(hctx, src.Split())
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: %w", cfg.Name, err)
			}
			need, err := minPrefixProtecting(ctx, inst.Net.Graph, rumors, prob.Ends, rank)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: %s solution size: %w", cfg.Name, sel.Name(), err)
			}
			if need > len(rank) {
				// The full ranking cannot protect everything; its whole
				// length is the heuristic's solution.
				need = len(rank)
			}
			seedSets[sel.Name()] = sampleSubset(rank[:need], budget, src.Split())
		}

		for name, protectors := range seedSets {
			res, err := diffusion.DOAM{}.RunContext(ctx, inst.Net.Graph, rumors, protectors, nil, diffusion.Options{
				MaxHops:    cfg.Hops,
				RecordHops: true,
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: simulate %s: %w", cfg.Name, name, err)
			}
			panel.Series[name] = padSeries(res.InfectedAtHop, cfg.Hops)
			panel.Protectors[name] = len(protectors)
		}
		out.Panels = append(out.Panels, panel)
	}
	return out, nil
}

// sampleSubset draws k distinct elements of xs uniformly (all of xs when
// k >= len(xs)), preserving no particular order.
func sampleSubset(xs []int32, k int, src *rng.Source) []int32 {
	if k >= len(xs) {
		return append([]int32(nil), xs...)
	}
	if k <= 0 {
		return nil
	}
	out := make([]int32, 0, k)
	for _, i := range src.SampleInt32(int32(len(xs)), int32(k)) {
		out = append(out, xs[i])
	}
	return out
}

// padSeries converts a cumulative int series into float64s of length
// hops+1, extending with the final value.
func padSeries(series []int32, hops int) []float64 {
	out := make([]float64, hops+1)
	var last float64
	for i := range out {
		if i < len(series) {
			last = float64(series[i])
		}
		out[i] = last
	}
	return out
}
