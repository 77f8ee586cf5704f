package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
)

// ExtendedRow is one algorithm's outcome in the extended comparison.
type ExtendedRow struct {
	Algorithm string
	// Protectors is the seed-set size actually used.
	Protectors int
	// Infected is the final DOAM infected count.
	Infected int32
	// EndsLost is the number of bridge ends infected.
	EndsLost int
}

// ExtendedComparison pits the paper's SCBG against the full baseline
// roster — Proximity, MaxDegree, PageRank, Random and the GVS greedy viral
// stopper — under the DOAM model with equal budgets. PageRank, Random and
// GVS go beyond the paper's own comparison set.
type ExtendedComparison struct {
	Config  Config
	NumEnds int
	Budget  int
	Rows    []ExtendedRow
}

// RunExtendedComparisonContext runs the roster on the instance. The budget
// is the SCBG solution size, as in the paper's Figures 7-9 protocol.
// Cancellation is forwarded to SCBG, every selector, the GVS greedy (the
// expensive stage), and the DOAM simulations.
func RunExtendedComparisonContext(ctx context.Context, inst *Instance) (*ExtendedComparison, error) {
	cfg := inst.Config
	src := rng.New(cfg.Seed + 16)
	prob, err := inst.NewProblem(cfg.RumorFractions[0], src)
	if err != nil {
		return nil, fmt.Errorf("experiment: extended: %w", err)
	}
	rumors := prob.Rumors
	if prob.NumEnds() == 0 {
		return nil, fmt.Errorf("experiment: extended: no bridge ends")
	}
	sres, err := core.SCBGContext(ctx, prob, core.SCBGOptions{})
	if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) &&
		(sres == nil || sres.UncoverableEnds == 0) {
		return nil, fmt.Errorf("experiment: extended: scbg: %w", err)
	}
	var scbgSeeds []int32
	if sres != nil {
		scbgSeeds = sres.Protectors
	}
	budget := len(scbgSeeds)
	out := &ExtendedComparison{Config: cfg, NumEnds: prob.NumEnds(), Budget: budget}

	hctx := heuristic.Context{Graph: inst.Net.Graph, Rumors: rumors, BridgeEnds: prob.Ends}
	seedSets := []struct {
		name  string
		seeds []int32
	}{
		{AlgoSCBG, scbgSeeds},
		{AlgoNoBlocking, nil},
	}
	for _, sel := range []heuristic.Selector{
		heuristic.Proximity{}, heuristic.MaxDegree{}, heuristic.DegreeDiscount{},
		heuristic.PageRank{}, heuristic.Random{},
	} {
		seeds, err := heuristic.SelectContext(ctx, sel, hctx, budget, src.Split())
		if err != nil {
			return nil, fmt.Errorf("experiment: extended: %s: %w", sel.Name(), err)
		}
		seedSets = append(seedSets, struct {
			name  string
			seeds []int32
		}{sel.Name(), seeds})
	}
	gvsSeeds, err := heuristic.GVS{
		Seed:          cfg.Seed + 17,
		MaxCandidates: 120,
	}.SelectContext(ctx, hctx, budget)
	if err != nil {
		return nil, fmt.Errorf("experiment: extended: gvs: %w", err)
	}
	seedSets = append(seedSets, struct {
		name  string
		seeds []int32
	}{"GVS", gvsSeeds})

	for _, set := range seedSets {
		sim, err := diffusion.DOAM{}.RunContext(ctx, inst.Net.Graph, rumors, set.seeds, nil, diffusion.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiment: extended: simulate %s: %w", set.name, err)
		}
		row := ExtendedRow{Algorithm: set.name, Protectors: len(set.seeds), Infected: sim.Infected}
		for _, e := range prob.Ends {
			if sim.Status[e] == diffusion.Infected {
				row.EndsLost++
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// WriteExtendedComparison renders the roster table.
func WriteExtendedComparison(w io.Writer, c *ExtendedComparison) error {
	if _, err := fmt.Fprintf(w, "# %s — extended baseline comparison (DOAM, |B| = %d, budget = %d)\n",
		c.Config.Name, c.NumEnds, c.Budget); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "algorithm\tprotectors\tinfected\tends lost\t")
	for _, row := range c.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d/%d\t\n",
			row.Algorithm, row.Protectors, row.Infected, row.EndsLost, c.NumEnds)
	}
	return tw.Flush()
}
