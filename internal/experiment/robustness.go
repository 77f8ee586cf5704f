package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/rng"
)

// NoiseRow is one step of the community-noise robustness sweep.
type NoiseRow struct {
	// Noise is the fraction of nodes reassigned to random communities in
	// the defender's community map.
	Noise float64
	// NoisyEnds is the bridge-end count computed from the noisy map.
	NoisyEnds int
	// Protectors is the SCBG seed-set size on the noisy map.
	Protectors int
	// TrueEndsInfected is the number of *true* bridge ends infected under
	// DOAM when the protectors chosen from the noisy map defend.
	TrueEndsInfected int
	// Infected is the total infected count of the same simulation.
	Infected int32
}

// NoiseAblation measures how the SCBG pipeline degrades when the
// defender's community detection is wrong: the attack runs on the real
// network, but the bridge-end discovery and solver see a partition with a
// fraction of nodes scrambled. The paper's method hinges on community
// structure; this quantifies how much detection quality matters.
type NoiseAblation struct {
	Config   Config
	TrueEnds int
	Rows     []NoiseRow
}

// RunNoiseAblationContext sweeps the given noise levels (0 = the detector's
// own partition). Cancellation is checked per noise level and forwarded to
// SCBG and the DOAM simulations.
func RunNoiseAblationContext(ctx context.Context, inst *Instance, noiseLevels []float64) (*NoiseAblation, error) {
	cfg := inst.Config
	src := rng.New(cfg.Seed + 13)
	trueProb, err := inst.NewProblem(cfg.RumorFractions[0], src)
	if err != nil {
		return nil, fmt.Errorf("experiment: noise ablation: %w", err)
	}
	rumors := trueProb.Rumors
	if trueProb.NumEnds() == 0 {
		return nil, fmt.Errorf("experiment: noise ablation: no bridge ends")
	}
	out := &NoiseAblation{Config: cfg, TrueEnds: trueProb.NumEnds()}

	numComms := inst.Part.Count()
	for _, noise := range noiseLevels {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: noise ablation: %w", err)
		}
		if noise < 0 || noise > 1 {
			return nil, fmt.Errorf("experiment: noise ablation: level %v out of [0,1]", noise)
		}
		// Scramble the defender's map. Rumor seeds keep their community so
		// the instance stays well formed.
		assign := inst.Part.Assign()
		perturb := src.Split()
		for u := range assign {
			if perturb.Float64() < noise && !isIn(rumors, int32(u)) {
				assign[u] = perturb.Int32n(numComms)
			}
		}
		noisyProb, err := core.NewProblem(inst.Net.Graph, assign, inst.Community, rumors)
		if err != nil {
			return nil, fmt.Errorf("experiment: noise ablation (%.2f): %w", noise, err)
		}
		row := NoiseRow{Noise: noise, NoisyEnds: noisyProb.NumEnds()}

		var protectors []int32
		if noisyProb.NumEnds() > 0 {
			sres, err := core.SCBGContext(ctx, noisyProb, core.SCBGOptions{})
			if err != nil && !errors.Is(err, core.ErrNoBridgeEnds) &&
				(sres == nil || sres.UncoverableEnds == 0) {
				return nil, fmt.Errorf("experiment: noise ablation (%.2f): %w", noise, err)
			}
			if sres != nil {
				protectors = sres.Protectors
			}
		}
		row.Protectors = len(protectors)

		sim, err := diffusion.DOAM{}.RunContext(ctx, inst.Net.Graph, rumors, protectors, nil, diffusion.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiment: noise ablation (%.2f): simulate: %w", noise, err)
		}
		for _, e := range trueProb.Ends {
			if sim.Status[e] == diffusion.Infected {
				row.TrueEndsInfected++
			}
		}
		row.Infected = sim.Infected
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// isIn reports membership of v in xs.
func isIn(xs []int32, v int32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// WriteNoiseAblation renders the sweep.
func WriteNoiseAblation(w io.Writer, a *NoiseAblation) error {
	if _, err := fmt.Fprintf(w, "# %s — community-noise robustness (true |B| = %d)\n",
		a.Config.Name, a.TrueEnds); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "noise\tnoisy |B|\tSCBG seeds\ttrue ends lost\ttotal infected\t")
	for _, row := range a.Rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%d\t%d/%d\t%d\t\n",
			row.Noise*100, row.NoisyEnds, row.Protectors,
			row.TrueEndsInfected, a.TrueEnds, row.Infected)
	}
	return tw.Flush()
}
