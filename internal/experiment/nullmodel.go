package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// NullModelRow is one side of the null-model comparison.
type NullModelRow struct {
	// Graph labels the side: "original" or "rewired".
	Graph string
	// Modularity of the detected partition.
	Modularity float64
	// CommSize, NumEnds and Protectors describe the instance and solution.
	CommSize   int
	NumEnds    int
	Protectors int
	// InfectedBlocked and InfectedOpen are final DOAM infected counts with
	// and without the SCBG protectors.
	InfectedBlocked int32
	InfectedOpen    int32
}

// NullModelAblation contrasts the full pipeline on a community-structured
// network against a degree-preserving rewiring of it. The rewired graph
// keeps every degree but has no community structure, so the bridge-end
// boundary the paper's method exploits dissolves — the ablation shows the
// method's advantage is the structure, not the degree sequence.
type NullModelAblation struct {
	Config Config
	Rows   []NullModelRow
}

// RunNullModelAblationContext runs the comparison. The rewired side
// re-detects communities (Louvain finds only weak ones) and re-runs the
// pipeline. Cancellation is checked per side and forwarded to SCBG and the
// DOAM simulations.
func RunNullModelAblationContext(ctx context.Context, cfg Config, rewire func(*graph.Graph, uint64) (*graph.Graph, error)) (*NullModelAblation, error) {
	cfg = cfg.withDefaults()
	inst, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	out := &NullModelAblation{Config: cfg}

	rewired, err := rewire(inst.Net.Graph, cfg.Seed+14)
	if err != nil {
		return nil, fmt.Errorf("experiment: null model: rewire: %w", err)
	}
	rewiredPart := community.Louvain(rewired, community.LouvainOptions{Seed: cfg.Seed + 1})

	sides := []struct {
		name string
		g    *graph.Graph
		part *community.Partition
	}{
		{"original", inst.Net.Graph, inst.Part},
		{"rewired", rewired, rewiredPart},
	}
	for _, side := range sides {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: null model: %w", err)
		}
		comm := side.part.ClosestBySize(cfg.scaledCommunityTarget())
		members := side.part.Members(comm)
		src := rng.New(cfg.Seed + 15)
		k := int32(cfg.RumorFractions[0] * float64(len(members)))
		if k < 1 {
			k = 1
		}
		var rumors []int32
		for _, i := range src.SampleInt32(int32(len(members)), k) {
			rumors = append(rumors, members[i])
		}
		prob, err := core.NewProblem(side.g, side.part.Assign(), comm, rumors)
		if err != nil {
			return nil, fmt.Errorf("experiment: null model (%s): %w", side.name, err)
		}
		row := NullModelRow{
			Graph:      side.name,
			Modularity: community.Modularity(side.g, side.part),
			CommSize:   len(members),
			NumEnds:    prob.NumEnds(),
		}
		var protectors []int32
		if prob.NumEnds() > 0 {
			sres, err := core.SCBGContext(ctx, prob, core.SCBGOptions{})
			if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) &&
				(sres == nil || sres.UncoverableEnds == 0) {
				return nil, fmt.Errorf("experiment: null model (%s): %w", side.name, err)
			}
			if sres != nil {
				protectors = sres.Protectors
			}
		}
		row.Protectors = len(protectors)

		blocked, err := diffusion.DOAM{}.RunContext(ctx, side.g, rumors, protectors, nil, diffusion.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiment: null model (%s): %w", side.name, err)
		}
		open, err := diffusion.DOAM{}.RunContext(ctx, side.g, rumors, nil, nil, diffusion.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiment: null model (%s): %w", side.name, err)
		}
		row.InfectedBlocked = blocked.Infected
		row.InfectedOpen = open.Infected
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// WriteNullModelAblation renders the comparison.
func WriteNullModelAblation(w io.Writer, a *NullModelAblation) error {
	if _, err := fmt.Fprintf(w, "# %s — degree-preserving null-model ablation\n", a.Config.Name); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "graph\tmodularity\t|C|\t|B|\tSCBG seeds\tinfected (blocked)\tinfected (open)\t")
	for _, row := range a.Rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%d\t%d\t%d\t%d\t%d\t\n",
			row.Graph, row.Modularity, row.CommSize, row.NumEnds,
			row.Protectors, row.InfectedBlocked, row.InfectedOpen)
	}
	return tw.Flush()
}
